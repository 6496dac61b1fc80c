create basket s (x int);
\watch big select x from [select * from s] as t
  where t.x > 10;
\stats
insert into s values (50);
