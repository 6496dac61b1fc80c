-- Partition-safety analyzer demo corpus.
--
--   datacell-lint --json --partition-report - examples/sql/partition_demo.sql
--
-- Every query below registers cleanly and receives a partition verdict from
-- analysis pass 3 (see docs/ARCHITECTURE.md). The corpus spans all four
-- verdicts: partitionable, needs-final-merge, needs-broadcast, pinned.
-- Each query reads its own basket so the live N004 multi-reader override
-- never fires and the effective verdict matches the static one.
-- (\watch statements end at their ';', so they may span lines.)

-- q1: per-tuple filter/project preserves the declared key end to end.
-- Verdict: partitionable(id); hot_out inherits the key.
create basket readings (id int, temp double) partition by id;
\watch hot select id, temp from [select * from readings] as r where r.temp > 30.0;

-- q2: group-by on the declared partition key. Shards aggregate disjoint key
-- ranges, so no merge is needed. Verdict: partitionable(sym).
create basket trades (sym string, price double, qty int) partition by sym with (cardinality(sym) = 64);
\watch per_sym select sym, sum(qty) as total from [select * from trades] as t group by sym;

-- q3: co-partitioned equi-join -- both streams declare the join column as
-- their key, so matching tuples land on the same shard.
-- Verdict: partitionable(sym on both inputs).
create basket bids (sym string, price double) partition by sym;
create basket asks (sym string, price double) partition by sym;
\watch spread select b.sym, b.price - a.price as gap from [select * from bids] as b join [select * from asks] as a on b.sym = a.sym;

-- q4: group-by on a plain non-key column. Still partitionable, but only
-- after a re-shuffle on the grouping column (advisory A001).
create basket fills (sym string, qty int) partition by sym with (cardinality(qty) = 32);
\watch by_qty select qty, count(*) as n from [select * from fills] as f group by qty;

-- q5: group-by on a column of the join build side while the join already
-- pins both inputs to the join key. No single split key satisfies both, so
-- shards emit partial aggregates and a final re-aggregation merges them.
-- Verdict: needs-final-merge (re-aggregate).
create basket orders (sym string, qty int) partition by sym;
create basket quotes (sym string, bid double) partition by sym;
\watch depth select q.bid, sum(o.qty) as vol from [select * from orders] as o join [select * from quotes] as q on o.sym = q.sym group by q.bid;

-- q6: scalar aggregate with avg. Shards keep sum+count partials; the merge
-- plan re-divides (advisory A008). Verdict: needs-final-merge.
create basket samples (id int, temp double) partition by id;
\watch avg_temp select avg(temp) as mean from [select * from samples] as s;

-- q7: stream-table join. The static relation must be replicated to every
-- shard (advisory A004). Verdict: needs-broadcast(instruments).
create table instruments (sym string, sector string);
insert into instruments values ('AAA', 'tech'), ('BBB', 'energy');
create basket ticks (sym string, price double) partition by sym;
\watch sectors select t.sym, i.sector from [select * from ticks] as t join instruments as i on t.sym = i.sym;

-- q8: ordered emission. Shards sort locally; emission needs a k-way ordered
-- merge plus the LIMIT re-applied (advisory A005).
-- Verdict: needs-final-merge (ordered-merge).
create basket scores (player string, pts double) partition by player;
\watch ranked select player, pts from [select * from scores] as s order by pts desc limit 10;

-- q9: DISTINCT over a computed expression -- no input column witnesses the
-- distinct key, so duplicates on different shards would both survive.
-- Verdict: pinned.
create basket events (id int, bytes int) partition by id;
\watch kinds select distinct bytes / 64 as bucket from [select * from events] as e;

-- q10: count-based window. Firing depends on global arrival order, which no
-- split preserves. Verdict: pinned.
create basket packets (src int, bytes int) partition by src;
\watch batches select sum(bytes) as burst from [select * from packets] as p window size 100;

-- q11: stream with no declared partition key. The analyzer prescribes the
-- grouping column as the key to declare (advisory A002).
create basket logs (host string, lat double) with (cardinality(host) = 50);
\watch p99ish select host, max(lat) as worst from [select * from logs] as l group by host;
