insert into t values ('it''s; here', '''');
select 'a'';' as q from t;
