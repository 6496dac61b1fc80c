select x, count(*), count(y), sum(y), min(y), max(y), avg(y), sum(x), min(x), max(x), avg(x) from [select * from s] as p group by x
