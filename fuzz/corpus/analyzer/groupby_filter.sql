select x, sum(y) as total, max(y) as hi from [select * from s] as p where p.y > 0.5 and p.x < 9 group by x
