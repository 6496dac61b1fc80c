select p.x, count(*) as n, sum(t.v) as sv, min(p.y) as lo from [select * from s] as p join t on p.x = t.k group by p.x
