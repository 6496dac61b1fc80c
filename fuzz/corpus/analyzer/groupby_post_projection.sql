select sum(y) * 2.0 as twice, x, count(*) + 1 as n1 from [select * from s] as p group by x
