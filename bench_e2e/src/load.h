// Seeded load generator, batching-invariant reference and latency histogram
// for the end-to-end benchmark. Nothing here touches the engine: the engine
// sees only the lines or column batches built from a Block.
#ifndef DATACELL_BENCH_E2E_LOAD_H_
#define DATACELL_BENCH_E2E_LOAD_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <deque>
#include <string>
#include <vector>

namespace e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread. A virtual machine whose kernel accounts
/// paravirtual steal time does not charge the thread for the time the host
/// ran something else on its core, nor does the guest for time the thread
/// waited behind another one, so work done by one thread that never blocks
/// is timed as if it had the core to itself.
inline int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Busy and stolen CPU time of the whole machine so far, in clock ticks, from
/// the first line of /proc/stat (zero where it cannot be read).
struct CpuTicks {
  double busy = 0.0;   // user, nice, system, irq, softirq
  double stolen = 0.0;

  static CpuTicks Read() {
    CpuTicks t;
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return t;
    double v[8] = {};
    if (std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1],
                    &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      t.busy = v[0] + v[1] + v[2] + v[5] + v[6];
      t.stolen = v[7];
    }
    std::fclose(f);
    return t;
  }

  /// Share of the CPU time wanted since `from` that the host took away:
  /// stolen / (busy + stolen), at most 0.9.
  double StolenShareSince(const CpuTicks& from) const {
    const double b = busy - from.busy, s = stolen - from.stolen;
    return b + s > 0.0 ? std::clamp(s / (b + s), 0.0, 0.9) : 0.0;
  }
};

constexpr int64_t kSyms = 1000;
constexpr double kZipfTheta = 0.8;
constexpr int64_t kCentsRange = 100000;     // px = cents / 100 in [0, 1000)
constexpr int64_t kHotCents = 90000;        // hot: px > 900
constexpr int64_t kWindowSize = 8192;
constexpr int64_t kWindowSlide = 1024;
constexpr size_t kDigestTuples = size_t{1} << 19;

/// Sector of a ref row; ref holds the even syms.
inline int64_t SectorOf(int64_t sym) { return (sym / 2) % 11; }

/// xoshiro256** seeded through splitmix64: fixed algorithm, so a seed gives
/// the same stream with every standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    for (uint64_t& s : s_) {
      seed += 0x9e3779b97f4a7c15ULL;
      uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      s = z ^ (z >> 31);
    }
  }
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }
  /// Uniform in [0, n).
  int64_t Below(int64_t n) {
    return static_cast<int64_t>(
        (static_cast<unsigned __int128>(Next()) * static_cast<uint64_t>(n)) >>
        64);
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

/// One generator block: the unit of `seq` and of creation time.
struct Block {
  int64_t seq = 0;
  std::vector<int64_t> sym, cents, qty;
  /// Positions replaced by a malformed line (fault injection, text only).
  std::vector<uint8_t> corrupt;
  size_t size() const { return sym.size(); }
};

/// The `ticks` stream: sym ~ Zipf(0.8) over 1,000 keys, px uniform over
/// [0, 1000) in cents, qty uniform over [1, 1000], seq = block id.
class TickGenerator {
 public:
  explicit TickGenerator(uint64_t seed) : rng_(seed) {
    double total = 0.0;
    for (int64_t k = 0; k < kSyms; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfTheta);
      cdf_[static_cast<size_t>(k)] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  /// Fills `out` with the next `n` tuples, tagged with block id `seq`.
  void NextBlock(int64_t seq, size_t n, Block* out) {
    out->seq = seq;
    out->sym.resize(n);
    out->cents.resize(n);
    out->qty.resize(n);
    out->corrupt.assign(n, 0);
    for (size_t i = 0; i < n; ++i) {
      double u = rng_.Unit();
      auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
      int64_t sym = std::min<int64_t>(it - cdf_.begin(), kSyms - 1);
      int64_t cents = rng_.Below(kCentsRange);
      int64_t qty = 1 + rng_.Below(1000);
      out->sym[i] = sym;
      out->cents[i] = cents;
      out->qty[i] = qty;
      if (digested_ < kDigestTuples) {
        Mix(static_cast<uint64_t>(sym));
        Mix(static_cast<uint64_t>(cents));
        Mix(static_cast<uint64_t>(qty));
        ++digested_;
      }
    }
  }

  /// FNV-1a over the first kDigestTuples generated tuples.
  uint64_t digest() const { return digest_; }
  size_t digested() const { return digested_; }

 private:
  void Mix(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      digest_ ^= (v >> (8 * b)) & 0xff;
      digest_ *= 0x100000001b3ULL;
    }
  }

  Rng rng_;
  std::array<double, kSyms> cdf_{};
  uint64_t digest_ = 0xcbf29ce484222325ULL;
  size_t digested_ = 0;
};

/// Renders a block as CSV lines `sym,px,qty,seq` (px with two decimals).
inline void FormatLines(const Block& b, std::vector<std::string>* lines) {
  lines->clear();
  lines->reserve(b.size());
  char buf[64];
  for (size_t i = 0; i < b.size(); ++i) {
    if (b.corrupt[i]) {
      lines->emplace_back("corrupt-line");
      continue;
    }
    char* p = buf;
    char* end = buf + sizeof(buf);
    p = std::to_chars(p, end, b.sym[i]).ptr;
    *p++ = ',';
    p = std::to_chars(p, end, b.cents[i] / 100).ptr;
    *p++ = '.';
    int64_t frac = b.cents[i] % 100;
    *p++ = static_cast<char>('0' + frac / 10);
    *p++ = static_cast<char>('0' + frac % 10);
    *p++ = ',';
    p = std::to_chars(p, end, b.qty[i]).ptr;
    *p++ = ',';
    p = std::to_chars(p, end, b.seq).ptr;
    lines->emplace_back(buf, static_cast<size_t>(p - buf));
  }
}

/// What every standing query must have produced for the tuples fed so far,
/// kept in a form that does not depend on how the engine batched them.
struct Reference {
  int64_t tuples = 0;  // valid tuples fed
  // hot: px > 900
  int64_t hot_rows = 0, hot_cents = 0, hot_qty = 0, hot_seq = 0;
  // enr: stream join ref (even syms)
  int64_t enr_rows = 0, enr_qty = 0, enr_sector = 0, enr_seq = 0;
  // vol: per-sym sum(qty) and max(seq)
  std::vector<int64_t> vol_qty = std::vector<int64_t>(kSyms, 0);
  std::vector<int64_t> vol_seq = std::vector<int64_t>(kSyms, -1);
  // tot
  int64_t tot_qty = 0, max_seq = -1;
  // win: one entry per emitted window (cents sum over 8192 tuples, max seq)
  struct WinRow {
    int64_t cents;
    int64_t max_seq;
  };
  std::vector<WinRow> win_rows;

  void Add(const Block& b) {
    for (size_t i = 0; i < b.size(); ++i) {
      if (b.corrupt[i]) continue;
      const int64_t sym = b.sym[i], cents = b.cents[i], qty = b.qty[i];
      ++tuples;
      if (cents > kHotCents) {
        ++hot_rows;
        hot_cents += cents;
        hot_qty += qty;
        hot_seq += b.seq;
      }
      if (sym % 2 == 0) {
        ++enr_rows;
        enr_qty += qty;
        enr_sector += SectorOf(sym);
        enr_seq += b.seq;
      }
      vol_qty[static_cast<size_t>(sym)] += qty;
      vol_seq[static_cast<size_t>(sym)] = b.seq;
      tot_qty += qty;
      max_seq = b.seq;
      chunk_cents_ += cents;
      chunk_seq_ = b.seq;
      if (++chunk_n_ == kWindowSlide) {
        chunks_.push_back({chunk_cents_, chunk_seq_});
        chunk_cents_ = 0;
        chunk_n_ = 0;
        if (static_cast<int64_t>(chunks_.size()) == kWindowSize / kWindowSlide) {
          WinRow row{0, -1};
          for (const WinRow& c : chunks_) {
            row.cents += c.cents;
            row.max_seq = std::max(row.max_seq, c.max_seq);
          }
          win_rows.push_back(row);
          chunks_.pop_front();
        }
      }
    }
  }

 private:
  std::deque<WinRow> chunks_;
  int64_t chunk_cents_ = 0, chunk_seq_ = -1, chunk_n_ = 0;
};

/// Log-linear latency histogram: 64 linear sub-buckets per power of two
/// (relative bucket width <= 1/64); percentiles interpolate inside the
/// covering bucket, so they read continuously instead of snapping to
/// bucket bounds.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr int64_t kSub = int64_t{1} << kSubBits;

  void Record(int64_t v) {
    if (v < 0) v = 0;
    ++counts_[Index(v)];
    ++count_;
  }
  void Merge(const LatencyHistogram& o) {
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
  }
  uint64_t count() const { return count_; }

  /// q in [0, 1]; 0 when empty.
  double Percentile(double q) const {
    if (count_ == 0) return 0.0;
    double rank = q * static_cast<double>(count_);
    double seen = 0.0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) continue;
      double next = seen + static_cast<double>(counts_[i]);
      if (next >= rank) {
        double frac = (rank - seen) / static_cast<double>(counts_[i]);
        double lo = static_cast<double>(Lower(i));
        double hi = static_cast<double>(Lower(i + 1));
        return lo + frac * (hi - lo);
      }
      seen = next;
    }
    return static_cast<double>(Lower(counts_.size()));
  }

 private:
  // Values of 2^41 ns (~37 min) and more share the last bucket.
  static constexpr int kMaxMsb = 40;
  static constexpr size_t kBuckets =
      static_cast<size_t>(kMaxMsb - kSubBits + 2) * static_cast<size_t>(kSub);

  static size_t Index(int64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    int msb = std::min(63 - __builtin_clzll(static_cast<uint64_t>(v)), kMaxMsb);
    int shift = msb - kSubBits;
    int64_t sub = std::min((v >> shift) - kSub, kSub - 1);  // in [0, kSub)
    return static_cast<size_t>((shift + 1) * kSub + sub);
  }
  static int64_t Lower(size_t idx) {
    int64_t i = static_cast<int64_t>(idx);
    if (i < kSub) return i;
    int64_t shift = i / kSub - 1;
    int64_t sub = i % kSub;
    return (kSub + sub) << shift;
  }

  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
};

/// A fixed unit of reference work timed alongside the engine, used to
/// express timed metrics at a reference machine speed (README, "Speed
/// normalisation"). On a shared host the engine slows by up to ~1.5x for
/// seconds to minutes while neighbours contend for the core's caches; an
/// ALU-only loop barely notices, so the unit is cache-bound like the
/// engine: a read-modify-write pass over a 256 KiB buffer (L2) and a chain of
/// dependent random reads in a 4 MiB table (last-level cache). One sample
/// is the geometric mean of the two kernels' times, each the fastest of
/// `reps` runs so a stray interrupt does not count. A sample first reads the
/// whole table once, so the timed reads find it in the caches whatever the
/// engine did on this core before: the unit does not depend on the working
/// set of the code it normalises.
class Calibration {
 public:
  Calibration() : l2_(kL2Words), llc_(kLlcWords) {
    uint64_t x = 0x2545f4914f6cdd1dULL;
    for (uint64_t& v : llc_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = x;
    }
    for (size_t i = 0; i < l2_.size(); ++i) l2_[i] = llc_[i];
  }

  int64_t Sample(int reps = 3) {
    int64_t l2 = INT64_MAX, llc = INT64_MAX;
    uint64_t x = sink_;
    for (size_t i = 0; i < kLlcWords; i += kWordsPerLine) x += llc_[i];
    for (int r = 0; r < reps; ++r) {
      int64_t t0 = NowNs();
      for (uint64_t& v : l2_) {
        x += v * 0x9e3779b97f4a7c15ULL;
        v ^= x >> 7;
      }
      int64_t t1 = NowNs();
      for (int i = 0; i < kLlcReads; ++i) {
        x = llc_[(x * 0x9e3779b97f4a7c15ULL >> 40) & (kLlcWords - 1)] + x +
            static_cast<uint64_t>(i);
      }
      int64_t t2 = NowNs();
      sink_ += x;
      l2 = std::min(l2, t1 - t0);
      llc = std::min(llc, t2 - t1);
    }
    return static_cast<int64_t>(
        std::sqrt(static_cast<double>(l2) * static_cast<double>(llc)));
  }
  uint64_t sink() const { return sink_; }

 private:
  static constexpr size_t kL2Words = 32 * 1024;    // 256 KiB
  static constexpr size_t kLlcWords = 512 * 1024;  // 4 MiB
  static constexpr size_t kWordsPerLine = 8;       // 64-byte cache lines
  static constexpr int kLlcReads = 3000;
  std::vector<uint64_t> l2_;
  std::vector<uint64_t> llc_;
  uint64_t sink_ = 0;
};

/// Creation time (steady-clock ns) of every recent block, indexed by seq.
/// Rows only ever name blocks a few hundred seqs old, far inside the ring.
class CreationTimes {
 public:
  void Set(int64_t seq, int64_t ns) {
    slots_[Slot(seq)].store(ns, std::memory_order_relaxed);
  }
  int64_t Get(int64_t seq) const {
    return slots_[Slot(seq)].load(std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kSlots = size_t{1} << 16;
  static size_t Slot(int64_t seq) {
    return static_cast<size_t>(seq) & (kSlots - 1);
  }
  std::array<std::atomic<int64_t>, kSlots> slots_{};
};

}  // namespace e2e

#endif  // DATACELL_BENCH_E2E_LOAD_H_
