#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include "adapters/channel.h"
#include "adapters/csv.h"
#include "adapters/generator.h"
#include "adapters/replayer.h"
#include "adapters/sink.h"

namespace datacell {
namespace {

// --- Channel -------------------------------------------------------------

TEST(ChannelTest, PushPopFifo) {
  Channel c;
  c.Push("a");
  c.Push("b");
  std::string out;
  ASSERT_TRUE(c.TryPop(&out));
  EXPECT_EQ(out, "a");
  ASSERT_TRUE(c.TryPop(&out));
  EXPECT_EQ(out, "b");
  EXPECT_FALSE(c.TryPop(&out));
  EXPECT_EQ(c.total_pushed(), 2);
}

TEST(ChannelTest, DrainUpTo) {
  Channel c;
  for (int i = 0; i < 5; ++i) c.Push(std::to_string(i));
  Channel::Lines batch = c.Take(3);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.block().line(batch.last() - 1), "2");
  EXPECT_EQ(c.size(), 2u);
  c.Release(batch);
  Channel::Lines rest = c.Take(100);
  EXPECT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest.block().line(rest.first()), "3");
  c.Release(rest);
  EXPECT_TRUE(c.Take(100).empty());
}

TEST(ChannelTest, CapacityDropsOldest) {
  Channel c(2);
  c.Push("1");
  c.Push("2");
  c.Push("3");  // drops "1"
  EXPECT_EQ(c.total_dropped(), 1);
  std::string out;
  ASSERT_TRUE(c.TryPop(&out));
  EXPECT_EQ(out, "2");
}

TEST(ChannelTest, CapacityDropsOldestLineAcrossBlocks) {
  Channel c(5);
  c.PushBatch({"a0", "a1", "a2"});  // one block
  c.PushBlock("b0\nb1\nb2\n");      // a second: drops a0
  EXPECT_EQ(c.total_dropped(), 1);
  c.PushBatch({"c0", "c1", "c2", "c3"});  // drops a1 a2 b0 b1
  EXPECT_EQ(c.total_dropped(), 5);
  EXPECT_EQ(c.size(), 5u);
  EXPECT_EQ(c.total_pushed(), 10);
  std::vector<std::string> got;
  std::string out;
  while (c.TryPop(&out)) got.push_back(out);
  EXPECT_EQ(got, (std::vector<std::string>{"b2", "c0", "c1", "c2", "c3"}));
  // A batch larger than the capacity keeps only its newest lines.
  Channel small(2);
  small.PushBlock("x\ny\nz");
  EXPECT_EQ(small.total_dropped(), 1);
  ASSERT_TRUE(small.TryPop(&out));
  EXPECT_EQ(out, "y");
}

TEST(ChannelTest, PushKindsInterleaveFifo) {
  Channel c;
  c.Push("1");
  c.PushBatch({"2", "3"});
  c.Push("4");  // joins the open tail block
  c.PushBlock("5\n6");
  c.Push("7\n8");  // one line, newline and all
  c.PushBlock("9\n\n");  // "9", then an empty line
  EXPECT_EQ(c.size(), 9u);
  std::vector<std::string> got;
  for (Channel::Lines lines = c.Take(4); !lines.empty(); lines = c.Take(4)) {
    EXPECT_LE(lines.size(), 4u);
    for (size_t i = lines.first(); i < lines.last(); ++i) {
      got.emplace_back(lines.block().line(i));
    }
    c.Release(lines);
  }
  EXPECT_EQ(got, (std::vector<std::string>{"1", "2", "3", "4", "5", "6",
                                           "7\n8", "9", ""}));
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.total_pushed(), 9);
}

TEST(ChannelTest, TakenRangeSurvivesLaterPushes) {
  Channel c;
  c.Push("a");
  c.Push("b");
  Channel::Lines first = c.Take(1);  // seals the block: no more appends
  for (int i = 0; i < 1000; ++i) c.Push("line-" + std::to_string(i));
  EXPECT_EQ(first.block().line(first.first()), "a");
  c.Release(first);
  std::string out;
  ASSERT_TRUE(c.TryPop(&out));
  EXPECT_EQ(out, "b");
  ASSERT_TRUE(c.TryPop(&out));
  EXPECT_EQ(out, "line-0");
  EXPECT_EQ(c.size(), 999u);
}

TEST(ChannelTest, PushBatch) {
  Channel c;
  c.PushBatch({"x", "y", "z"});
  EXPECT_EQ(c.size(), 3u);
}

/// A blocking pop built from the surviving API, as a consumer thread would
/// write it: wait on the wake callback, then TryPop. False on timeout, or
/// when the channel closed empty. The wait state is shared with the
/// callback, which a producer may still be running after this returns.
bool PopBlocking(Channel& c, std::string* out,
                 std::chrono::milliseconds limit) {
  struct Wait {
    std::mutex mu;
    std::condition_variable cv;
    bool woken = false;
  };
  auto wait = std::make_shared<Wait>();
  c.SetWakeCallback([wait] {
    std::lock_guard<std::mutex> lock(wait->mu);
    wait->woken = true;
    wait->cv.notify_all();
  });
  bool got = c.TryPop(out);
  if (!got && !c.closed()) {
    std::unique_lock<std::mutex> lock(wait->mu);
    wait->cv.wait_for(lock, limit, [&] { return wait->woken; });
  }
  if (!got) got = c.TryPop(out);
  c.SetWakeCallback(nullptr);
  return got;
}

TEST(ChannelTest, PopBlockingTimesOut) {
  Channel c;
  std::string out;
  EXPECT_FALSE(PopBlocking(c, &out, std::chrono::milliseconds(1)));
}

TEST(ChannelTest, PopBlockingWakesOnPush) {
  Channel c;
  std::string out;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    c.Push("wake");
  });
  EXPECT_TRUE(PopBlocking(c, &out, std::chrono::seconds(5)));
  EXPECT_EQ(out, "wake");
  producer.join();
}

TEST(ChannelTest, CloseUnblocks) {
  Channel c;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    c.Close();
  });
  std::string out;
  auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(PopBlocking(c, &out, std::chrono::seconds(5)));
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  closer.join();
  EXPECT_TRUE(c.closed());
}

// --- CSV -------------------------------------------------------------------

TEST(CsvTest, FormatBasicRow) {
  Row row{Value::Int64(1), Value::String("abc"), Value::Double(2.5)};
  EXPECT_EQ(FormatCsvRow(row), "1,abc,2.5");
}

TEST(CsvTest, NullIsEmptyField) {
  Row row{Value::Int64(1), Value::Null(), Value::Int64(3)};
  EXPECT_EQ(FormatCsvRow(row), "1,,3");
}

TEST(CsvTest, QuotingRoundTrip) {
  Schema schema({{"s", DataType::kString}});
  for (const std::string& s :
       {std::string("with,comma"), std::string("with\"quote"),
        std::string("multi\nline"), std::string("")}) {
    std::string line = FormatCsvRow({Value::String(s)});
    auto row = ParseCsvRow(line, schema);
    ASSERT_TRUE(row.ok()) << line;
    EXPECT_EQ((*row)[0], Value::String(s)) << line;
  }
}

TEST(CsvTest, ParseTypedRow) {
  Schema schema({{"a", DataType::kInt64},
                 {"b", DataType::kDouble},
                 {"c", DataType::kString},
                 {"d", DataType::kBool}});
  auto row = ParseCsvRow("7,0.5,hello,true", schema);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[0], Value::Int64(7));
  EXPECT_EQ((*row)[1], Value::Double(0.5));
  EXPECT_EQ((*row)[2], Value::String("hello"));
  EXPECT_EQ((*row)[3], Value::Bool(true));
}

TEST(CsvTest, ParseNulls) {
  Schema schema({{"a", DataType::kInt64}, {"s", DataType::kString}});
  auto row = ParseCsvRow(",", schema);
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE((*row)[0].is_null());
  EXPECT_TRUE((*row)[1].is_null());  // unquoted empty string field = null
  auto row2 = ParseCsvRow(",\"\"", schema);
  ASSERT_TRUE(row2.ok());
  EXPECT_EQ((*row2)[1], Value::String(""));  // quoted empty = empty string
}

TEST(CsvTest, ArityAndTypeValidation) {
  Schema schema({{"a", DataType::kInt64}});
  EXPECT_FALSE(ParseCsvRow("1,2", schema).ok());
  EXPECT_FALSE(ParseCsvRow("xyz", schema).ok());
  EXPECT_FALSE(ParseCsvRow("\"unterminated", schema).ok());
}

TEST(CsvTest, TimestampColumn) {
  Schema schema({{"ts", DataType::kTimestamp}});
  auto row = ParseCsvRow("123456789", schema);
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE((*row)[0].is_timestamp());
}

TEST(CsvTest, UnquotedControlByteFieldBesideQuotedField) {
  // A quoted-empty field used to be marked in band with "\x01", so an
  // unquoted "\x01" read as "" whenever the line held a quote.
  Schema schema({{"a", DataType::kString}, {"b", DataType::kString}});
  for (const char* line : {"a,\x01", "\"a\",\x01"}) {
    auto row = ParseCsvRow(line, schema);
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    EXPECT_EQ((*row)[1].string_value(), "\x01") << line;
    ColumnBatch batch(schema);
    ASSERT_TRUE(AppendCsvToColumns(line, &batch).ok());
    EXPECT_EQ(batch.column(1).StringAt(0), "\x01") << line;
  }
  auto quoted_empty = ParseCsvRow("\"a\",\"\"", schema);
  ASSERT_TRUE(quoted_empty.ok());
  EXPECT_TRUE((*quoted_empty)[1].is_string());
  EXPECT_EQ((*quoted_empty)[1].string_value(), "");
  auto unquoted_empty = ParseCsvRow("\"a\",", schema);
  ASSERT_TRUE(unquoted_empty.ok());
  EXPECT_TRUE((*unquoted_empty)[1].is_null());
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

TEST(CsvTest, BlockParseMatchesRowParseLineByLine) {
  Schema schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"b", DataType::kBool},
                 {"s", DataType::kString},
                 {"t", DataType::kTimestamp}});
  const std::vector<std::string> lines = {
      "1,2.5,true,x,7",
      "-0,-0,f,y,-0",
      "-12,-0.0,F,z,0",
      "+5,1,t,a,1",                      // int rejects '+'
      "5,+5,t,a,1",                      // double takes it (strtod)
      " 7 , 3.25 ,1, s ,  9",            // padded numerics
      "123456789012345678,1.5,t,a,1",    // 18 digits: fast
      "1234567890123456789,1.5,t,a,1",   // 19 digits: general path
      "9999999999999999999,1.5,t,a,1",   // overflows int64
      "1,123456789012345,t,a,1",         // 15 significant digits
      "1,1234567890123456,t,a,1",        // 16: general path
      "1,0.1000000000000000055511151231257827,t,a,1",
      "1,0.000000000000000000001,t,a,1",  // 22 fraction digits
      "1,0.0000000000000000000001,t,a,1",  // 23
      "1,1e3,t,a,1",
      "1,2.5E-3,t,a,1",
      "1,inf,t,a,1",
      "1,-nan,t,a,1",
      "1,5.,t,a,1",
      "1,.5,t,a,1",
      "1,0x1p3,t,a,1",
      "1,2.5,t,a,1\r",                   // trailing CR
      "1\r,2.5,t,a,1",
      "1,,,,",
      ",,,,",
      "\"1\",\"2.5\",\"t\",\"q,q\",1",
      "1,2.5,t,say \"\"hi\"\",1",
      "1,2.5,t,\x01,1",
      "1,2.5,t",
      "1,2.5,t,a,1,extra",
      "x,2.5,t,a,1",
      "1,2.5,maybe,a,1",
      "1,2.5,t,\"unterminated,1",
      "",
  };
  TextBlock block;
  for (const std::string& line : lines) block.Append(line);
  ColumnBatch batch(schema);
  for (size_t i = 0; i < lines.size(); ++i) {
    SCOPED_TRACE(lines[i]);
    auto want = ParseCsvRow(lines[i], schema);
    size_t before = batch.num_rows();
    CsvParseReport report = ParseCsvLines(block, i, i + 1, &batch);
    ASSERT_EQ(report.rejected, want.ok() ? 0u : 1u);
    ASSERT_EQ(batch.num_rows(), before + (want.ok() ? 1 : 0));
    if (!want.ok()) {
      EXPECT_FALSE(report.first_error.ok());
      continue;
    }
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      const Value& v = (*want)[c];
      const Bat& col = batch.column(c);
      ASSERT_EQ(col.IsNull(before), v.is_null()) << "column " << c;
      if (v.is_null()) continue;
      switch (schema.field(c).type) {
        case DataType::kInt64:
        case DataType::kTimestamp:
          EXPECT_EQ(col.Int64At(before), v.int64_value());
          break;
        case DataType::kDouble:
          EXPECT_EQ(DoubleBits(col.DoubleAt(before)),
                    DoubleBits(v.double_value()));
          break;
        case DataType::kBool:
          EXPECT_EQ(col.BoolAt(before), v.bool_value());
          break;
        case DataType::kString:
          EXPECT_EQ(col.StringAt(before), v.string_value());
          break;
      }
    }
  }
}

TEST(CsvTest, ParseCsvLinesCountsRejectsAndKeepsTheFirstReason) {
  Schema schema({{"x", DataType::kInt64}, {"y", DataType::kDouble}});
  TextBlock block;
  block.AppendFramed("1,2.5\nbad,1\n3,4.5\n4\n5,6");
  ASSERT_EQ(block.size(), 5u);
  ColumnBatch batch(schema);
  CsvParseReport report = ParseCsvLines(block, 0, block.size(), &batch);
  EXPECT_EQ(report.rejected, 2u);
  EXPECT_NE(report.first_error.ToString().find("bad"), std::string::npos)
      << report.first_error.ToString();
  ASSERT_EQ(batch.num_rows(), 3u);
  EXPECT_EQ(batch.column(0).size(), batch.column(1).size());
  EXPECT_EQ(batch.column(0).Int64At(2), 5);
  EXPECT_EQ(batch.column(1).DoubleAt(1), 4.5);
}

// --- generators --------------------------------------------------------------

TEST(GeneratorTest, UniformDeterministic) {
  std::vector<ColumnSpec> cols(2);
  cols[0].type = DataType::kInt64;
  cols[0].int_min = 0;
  cols[0].int_max = 100;
  cols[1].type = DataType::kDouble;
  UniformRowGenerator g1(cols, 7);
  UniformRowGenerator g2(cols, 7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(g1.Next(), g2.Next());
  }
}

TEST(GeneratorTest, RespectsRangesAndSchema) {
  std::vector<ColumnSpec> cols(3);
  cols[0].type = DataType::kInt64;
  cols[0].int_min = 10;
  cols[0].int_max = 20;
  cols[1].type = DataType::kString;
  cols[1].cardinality = 3;
  cols[2].type = DataType::kBool;
  UniformRowGenerator gen(cols, 1);
  Schema schema = gen.MakeSchema();
  EXPECT_EQ(schema.num_fields(), 3u);
  EXPECT_EQ(schema.field(1).type, DataType::kString);
  for (int i = 0; i < 200; ++i) {
    Row row = gen.Next();
    int64_t a = row[0].int64_value();
    EXPECT_GE(a, 10);
    EXPECT_LE(a, 20);
    const std::string& s = row[1].string_value();
    EXPECT_TRUE(s == "s0" || s == "s1" || s == "s2") << s;
  }
}

TEST(GeneratorTest, OutOfOrderPreservesMultiset) {
  std::vector<ColumnSpec> cols(1);
  cols[0].type = DataType::kInt64;
  cols[0].int_min = 0;
  cols[0].int_max = 1000000;
  auto inner = std::make_unique<UniformRowGenerator>(cols, 5);
  UniformRowGenerator reference(cols, 5);
  OutOfOrderGenerator ooo(std::move(inner), 8, 0.5, 99);
  std::multiset<int64_t> got, want;
  // Drawing n rows from the shuffler covers the first n+displacement inner
  // rows minus the buffered tail; compare prefixes conservatively.
  constexpr int kN = 100;
  std::vector<int64_t> ordered;
  for (int i = 0; i < kN + 8; ++i) {
    ordered.push_back(reference.Next()[0].int64_value());
  }
  std::vector<int64_t> shuffled;
  for (int i = 0; i < kN; ++i) {
    shuffled.push_back(ooo.Next()[0].int64_value());
  }
  // Every emitted value must appear in the ordered prefix...
  std::multiset<int64_t> prefix(ordered.begin(), ordered.end());
  bool disorder_seen = false;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(prefix.count(shuffled[i]) > 0);
    prefix.erase(prefix.find(shuffled[i]));
    if (shuffled[i] != ordered[i]) disorder_seen = true;
  }
  // ...and with 50% disorder some displacement must actually happen.
  EXPECT_TRUE(disorder_seen);
}

TEST(GeneratorTest, OutOfOrderZeroDisplacementIsIdentity) {
  std::vector<ColumnSpec> cols(1);
  cols[0].type = DataType::kInt64;
  auto inner = std::make_unique<UniformRowGenerator>(cols, 5);
  UniformRowGenerator reference(cols, 5);
  OutOfOrderGenerator ooo(std::move(inner), 0, 1.0, 1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(ooo.Next(), reference.Next());
  }
}

// --- sinks -------------------------------------------------------------------

Table OneRowTable() {
  Table t("", Schema({{"x", DataType::kInt64}}));
  EXPECT_TRUE(t.AppendRow({Value::Int64(42)}).ok());
  return t;
}

TEST(SinkTest, CollectingSink) {
  CollectingSink sink;
  Table t = OneRowTable();
  sink.OnBatch(t, 1);
  sink.OnBatch(t, 2);
  EXPECT_EQ(sink.row_count(), 2u);
  EXPECT_EQ(sink.batch_count(), 2u);
  auto rows = sink.TakeRows();
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_EQ(sink.row_count(), 0u);  // take drains
}

TEST(SinkTest, CountingSink) {
  CountingSink sink;
  Table t = OneRowTable();
  sink.OnBatch(t, 55);
  EXPECT_EQ(sink.rows(), 1);
  EXPECT_EQ(sink.batches(), 1);
  EXPECT_EQ(sink.last_delivery_us(), 55);
}

TEST(SinkTest, CallbackSink) {
  int called = 0;
  CallbackSink sink([&](const Table& batch, Timestamp ts) {
    ++called;
    EXPECT_EQ(batch.num_rows(), 1u);
    EXPECT_EQ(ts, 9);
  });
  Table t = OneRowTable();
  sink.OnBatch(t, 9);
  EXPECT_EQ(called, 1);
}

TEST(SinkTest, ChannelSinkWritesCsv) {
  Channel c;
  ChannelSink sink(&c);
  Table t = OneRowTable();
  sink.OnBatch(t, 0);
  std::string line;
  ASSERT_TRUE(c.TryPop(&line));
  EXPECT_EQ(line, "42");
}

TEST(SinkTest, LatencyTrackingSink) {
  // Rows: (payload, arrival_ts, delivery_ts-last-col).
  Table t("", Schema({{"x", DataType::kInt64},
                      {"ts", DataType::kTimestamp},
                      {"out_ts", DataType::kTimestamp}}));
  ASSERT_TRUE(t.AppendRow({Value::Int64(1), Value::TimestampVal(100),
                           Value::TimestampVal(0)})
                  .ok());
  ASSERT_TRUE(t.AppendRow({Value::Int64(2), Value::TimestampVal(250),
                           Value::TimestampVal(0)})
                  .ok());
  LatencyTrackingSink sink(/*ts_column=*/1);
  sink.OnBatch(t, /*now_us=*/300);
  EXPECT_EQ(sink.rows(), 2);
  SampleStats stats = sink.latencies_us();
  EXPECT_DOUBLE_EQ(stats.Min(), 50.0);   // 300 - 250
  EXPECT_DOUBLE_EQ(stats.Max(), 200.0);  // 300 - 100
}

TEST(SinkTest, LatencyTrackingSinkIgnoresBadColumn) {
  Table t("", Schema({{"x", DataType::kInt64}}));
  ASSERT_TRUE(t.AppendRow({Value::Int64(1)}).ok());
  LatencyTrackingSink sink(/*ts_column=*/5);
  sink.OnBatch(t, 10);
  EXPECT_EQ(sink.rows(), 0);
}

// --- replayer ----------------------------------------------------------------

std::unique_ptr<RowGenerator> IntGenerator() {
  std::vector<ColumnSpec> cols(1);
  cols[0].type = DataType::kInt64;
  return std::make_unique<UniformRowGenerator>(cols, 7);
}

TEST(ReplayerTest, SendsExactlyTotalRows) {
  Channel wire;
  Replayer::Options opts;
  opts.rows_per_second = 1e6;  // effectively unthrottled
  opts.batch_size = 64;
  opts.total_rows = 1000;
  Replayer replayer(&wire, IntGenerator(), opts);
  ASSERT_TRUE(replayer.Start().ok());
  for (int i = 0; i < 5000 && !replayer.finished(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  replayer.Stop();
  EXPECT_TRUE(replayer.finished());
  EXPECT_EQ(replayer.rows_sent(), 1000);
  EXPECT_EQ(wire.size(), 1000u);
}

/// Rows-only generator: (i, "line i") with every third string holding a
/// newline, which framed text must not split.
class NewlineGenerator : public RowGenerator {
 public:
  Row Next() override {
    int64_t i = next_++;
    std::string s = "line " + std::to_string(i);
    if (i % 3 == 0) s += "\nmore";
    return {Value::Int64(i), Value::String(std::move(s))};
  }

 private:
  int64_t next_ = 0;
};

TEST(ReplayerTest, QuotedNewlineStaysOneLine) {
  Channel wire;
  Replayer::Options opts;
  opts.rows_per_second = 1e6;
  opts.batch_size = 8;
  opts.total_rows = 20;
  Replayer replayer(&wire, std::make_unique<NewlineGenerator>(), opts);
  ASSERT_TRUE(replayer.Start().ok());
  for (int i = 0; i < 5000 && !replayer.finished(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  replayer.Stop();
  ASSERT_TRUE(replayer.finished());
  ASSERT_EQ(wire.size(), 20u);
  Schema schema({{"i", DataType::kInt64}, {"s", DataType::kString}});
  NewlineGenerator expected;
  std::string line;
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(wire.TryPop(&line));
    auto row = ParseCsvRow(line, schema);
    ASSERT_TRUE(row.ok()) << line;
    EXPECT_EQ(*row, expected.Next()) << line;
  }
}

TEST(ReplayerTest, RateIsRoughlyHeld) {
  Channel wire;
  Replayer::Options opts;
  opts.rows_per_second = 5000;
  opts.batch_size = 50;
  opts.total_rows = 1000;  // should take ~200 ms
  Replayer replayer(&wire, IntGenerator(), opts);
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(replayer.Start().ok());
  while (!replayer.finished()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  replayer.Stop();
  EXPECT_GE(elapsed_ms, 150);   // not wildly fast
  EXPECT_LE(elapsed_ms, 2000);  // not stalled
}

TEST(ReplayerTest, StopInterruptsUnboundedRun) {
  Channel wire;
  Replayer::Options opts;
  opts.rows_per_second = 1e6;
  opts.total_rows = 0;  // unbounded
  Replayer replayer(&wire, IntGenerator(), opts);
  ASSERT_TRUE(replayer.Start().ok());
  EXPECT_FALSE(replayer.Start().ok());  // one-shot
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  replayer.Stop();
  EXPECT_FALSE(replayer.finished());
  EXPECT_GT(replayer.rows_sent(), 0);
}

}  // namespace
}  // namespace datacell
