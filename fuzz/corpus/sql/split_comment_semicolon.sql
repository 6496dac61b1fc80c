select a -- not; the end
from t;
-- a comment; between statements
drop table t
