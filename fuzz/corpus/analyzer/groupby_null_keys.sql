select x, count(*) as n, count(y) as c, sum(y) as total from [select * from s] as p group by x
