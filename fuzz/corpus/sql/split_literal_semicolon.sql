insert into t values (1, 'a;b'), (2, ';');
select x from t where label = 'x;y';
