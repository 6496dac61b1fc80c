-- A line command ends at the end of its line: the CREATE below must
-- still run, so the SELECT binds.
\stats
create table t (a int);
select a from t;
