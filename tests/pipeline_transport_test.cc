// The shard transport layer: CRC32 framing, the incremental decoder's
// clean-accept-or-clean-reject contract under noise/truncation/bit-flips
// (property-style fuzz, meant to run under ASan+UBSan), strict protocol
// header parsing, bit-exact task/options marshalling, the --chaos-net fault
// plan grammar, and deterministic fault injection over real sockets.

#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tfb/base/crc32.h"
#include "tfb/pipeline/transport.h"
#include "tfb/pipeline/wire.h"
#include "tfb/stats/rng.h"

namespace tfb::pipeline {
namespace {

Frame MakeFrame(FrameType type, std::string payload) {
  Frame f;
  f.type = type;
  f.payload = std::move(payload);
  return f;
}

/// Drains every decodable frame; returns the terminal (non-kFrame) result.
FrameDecoder::Result Drain(FrameDecoder* decoder, std::vector<Frame>* out) {
  for (;;) {
    Frame frame;
    const FrameDecoder::Result r = decoder->Next(&frame);
    if (r != FrameDecoder::Result::kFrame) return r;
    out->push_back(std::move(frame));
  }
}

// ---------------------------------------------------------------------------
// CRC32.

TEST(Crc32, KnownAnswerAndChaining) {
  // The canonical CRC-32/ISO-HDLC check value.
  EXPECT_EQ(base::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(base::Crc32("", 0), 0u);
  // Chainable: crc(a+b) == crc(b, seed=crc(a)).
  const std::string text = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = base::Crc32(text.data(), text.size());
  const std::uint32_t first = base::Crc32(text.data(), 10);
  EXPECT_EQ(base::Crc32(text.data() + 10, text.size() - 10, first), whole);
  // One flipped bit anywhere changes the checksum.
  std::string mutated = text;
  mutated[17] = static_cast<char>(mutated[17] ^ 0x10);
  EXPECT_NE(base::Crc32(mutated.data(), mutated.size()), whole);
}

// ---------------------------------------------------------------------------
// Framing round-trips.

TEST(Framing, RoundTripsTextBinaryAndEmptyPayloads) {
  std::string binary = "bin\0\n\r\xff payload";
  binary.push_back('\0');
  const std::vector<Frame> frames = {
      MakeFrame(FrameType::kHello, "1 0 4242"),
      MakeFrame(FrameType::kTask, std::string(binary.data(), binary.size())),
      MakeFrame(FrameType::kQuit, ""),
      MakeFrame(FrameType::kRow, std::string(100 * 1024, 'x')),
  };
  for (const Frame& in : frames) {
    FrameDecoder decoder;
    const std::string wire = EncodeFrame(in);
    decoder.Feed(wire.data(), wire.size());
    Frame out;
    ASSERT_EQ(decoder.Next(&out), FrameDecoder::Result::kFrame);
    EXPECT_EQ(out.type, in.type);
    EXPECT_EQ(out.payload, in.payload);
    EXPECT_EQ(decoder.Next(&out), FrameDecoder::Result::kNeedMore);
    EXPECT_EQ(decoder.pending_bytes(), 0u);
  }
}

TEST(Framing, DecodesConcatenatedFramesInOrder) {
  std::string wire;
  for (int i = 0; i < 5; ++i) {
    wire += EncodeFrame(
        MakeFrame(FrameType::kHeartbeat, "beat " + std::to_string(i)));
  }
  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  std::vector<Frame> out;
  EXPECT_EQ(Drain(&decoder, &out), FrameDecoder::Result::kNeedMore);
  ASSERT_EQ(out.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].payload,
              "beat " + std::to_string(i));
  }
}

TEST(Framing, DecodesByteAtATime) {
  const std::string wire =
      EncodeFrame(MakeFrame(FrameType::kGrant, "0 1 2 3")) +
      EncodeFrame(MakeFrame(FrameType::kDone, "1 0"));
  FrameDecoder decoder;
  std::vector<Frame> out;
  for (const char c : wire) {
    decoder.Feed(&c, 1);
    EXPECT_NE(Drain(&decoder, &out), FrameDecoder::Result::kCorrupt);
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].payload, "0 1 2 3");
  EXPECT_EQ(out[1].payload, "1 0");
}

TEST(Framing, EveryStrictPrefixNeedsMoreBytes) {
  const std::string wire = EncodeFrame(MakeFrame(FrameType::kRow, "2 7 1 0"));
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    FrameDecoder decoder;
    decoder.Feed(wire.data(), cut);
    Frame out;
    EXPECT_EQ(decoder.Next(&out), FrameDecoder::Result::kNeedMore)
        << "prefix of " << cut << " bytes";
  }
}

TEST(Framing, BadMagicIsCorrupt) {
  FrameDecoder decoder;
  decoder.Feed("XXXXXXXX", 8);
  Frame out;
  std::string error;
  EXPECT_EQ(decoder.Next(&out, &error), FrameDecoder::Result::kCorrupt);
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(Framing, OversizeLengthIsCorruptBeforeBuffering) {
  // Hand-craft a header whose length field exceeds the cap: the decoder
  // must reject it from the 7 header bytes alone (a flipped length bit
  // must not drive a gigabyte allocation while "waiting for the rest").
  const std::uint32_t len = static_cast<std::uint32_t>(kMaxFramePayload) + 1;
  std::string wire = "TFB";
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  }
  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  Frame out;
  std::string error;
  EXPECT_EQ(decoder.Next(&out, &error), FrameDecoder::Result::kCorrupt);
  EXPECT_NE(error.find("length"), std::string::npos) << error;
}

TEST(Framing, SingleBitFlipNeverYieldsTheOriginalFrame) {
  const Frame original = MakeFrame(FrameType::kRow, "1 3 1 0 0.25\n{row}");
  const std::string wire = EncodeFrame(original);
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      std::string mutated = wire;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1u << bit));
      FrameDecoder decoder;
      decoder.Feed(mutated.data(), mutated.size());
      std::vector<Frame> out;
      const FrameDecoder::Result r = Drain(&decoder, &out);
      // A length-field flip may leave the decoder waiting for bytes that
      // never come (kNeedMore); everything else must be rejected outright.
      // Under no flip may the original frame be reconstructed.
      EXPECT_TRUE(r == FrameDecoder::Result::kCorrupt ||
                  r == FrameDecoder::Result::kNeedMore);
      for (const Frame& f : out) {
        EXPECT_FALSE(f.type == original.type && f.payload == original.payload)
            << "bit flip at byte " << byte << " bit " << bit
            << " resurrected the frame";
      }
    }
  }
}

TEST(Framing, RandomNoiseFuzzCleanlyAcceptsOrRejects) {
  // Property: arbitrary bytes fed in arbitrary chunkings terminate in
  // kNeedMore or kCorrupt without crashing or looping (the real assertions
  // are ASan/UBSan under the sanitize preset).
  stats::Rng rng(20260808);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t size = rng.UniformInt(600);
    std::string noise(size, '\0');
    for (std::size_t i = 0; i < size; ++i) {
      noise[i] = static_cast<char>(rng.UniformInt(256));
    }
    // Bias a third of the trials toward the magic so the deeper header and
    // CRC paths get exercised, not just the magic check.
    if (trial % 3 == 0 && size >= 2) {
      noise[0] = 'T';
      noise[1] = 'F';
    }
    FrameDecoder decoder;
    std::size_t fed = 0;
    FrameDecoder::Result last = FrameDecoder::Result::kNeedMore;
    while (fed < size && last != FrameDecoder::Result::kCorrupt) {
      const std::size_t chunk =
          std::min(size - fed, 1 + rng.UniformInt(64));
      decoder.Feed(noise.data() + fed, chunk);
      fed += chunk;
      std::vector<Frame> out;
      last = Drain(&decoder, &out);
    }
    SUCCEED();
  }
}

TEST(Framing, ValidFrameThenGarbageYieldsFrameThenCorrupt) {
  const std::string wire =
      EncodeFrame(MakeFrame(FrameType::kDone, "1 0")) + "garbage!";
  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  std::vector<Frame> out;
  EXPECT_EQ(Drain(&decoder, &out), FrameDecoder::Result::kCorrupt);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload, "1 0");
}

// ---------------------------------------------------------------------------
// Strict header parsing.

TEST(Wire, ParseSizeFieldsAcceptsOnlyCleanDecimalFields) {
  const auto three = ParseSizeFields("1 2 3", 3, 3);
  ASSERT_TRUE(three.has_value());
  EXPECT_EQ(*three, (std::vector<std::size_t>{1, 2, 3}));
  // Repeated/leading/trailing separators are tolerated; content is strict.
  const auto spaced = ParseSizeFields("  7   42 ", 2, 2);
  ASSERT_TRUE(spaced.has_value());
  EXPECT_EQ(*spaced, (std::vector<std::size_t>{7, 42}));
  // The largest representable value parses exactly...
  const auto max = ParseSizeFields("18446744073709551615", 1, 1);
  ASSERT_TRUE(max.has_value());
  EXPECT_EQ((*max)[0], std::numeric_limits<std::size_t>::max());
  // ...and one past it is corruption, not a clamp.
  EXPECT_FALSE(ParseSizeFields("18446744073709551616", 1, 1).has_value());
  EXPECT_FALSE(ParseSizeFields("99999999999999999999999", 1, 1).has_value());
}

TEST(Wire, ParseSizeFieldsRejectsGarbageAndWrongArity) {
  EXPECT_FALSE(ParseSizeFields("12x", 1, 1).has_value());
  EXPECT_FALSE(ParseSizeFields("1 2x", 2, 2).has_value());
  EXPECT_FALSE(ParseSizeFields("-1", 1, 1).has_value());
  EXPECT_FALSE(ParseSizeFields("+1", 1, 1).has_value());
  EXPECT_FALSE(ParseSizeFields("1.5", 1, 1).has_value());
  EXPECT_FALSE(ParseSizeFields("0x10", 1, 1).has_value());
  EXPECT_FALSE(ParseSizeFields("1\t2", 2, 2).has_value());
  EXPECT_FALSE(ParseSizeFields("", 1).has_value());
  EXPECT_FALSE(ParseSizeFields("1 2", 3, 3).has_value());   // Too few.
  EXPECT_FALSE(ParseSizeFields("1 2 3 4", 1, 3).has_value());  // Too many.
  const auto empty_ok = ParseSizeFields("", 0, 0);
  ASSERT_TRUE(empty_ok.has_value());
  EXPECT_TRUE(empty_ok->empty());
}

TEST(Wire, ParseStrictDoubleRejectsNonFiniteAndTrailingGarbage) {
  EXPECT_DOUBLE_EQ(*ParseStrictDouble("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(*ParseStrictDouble("-2e-3"), -0.002);
  EXPECT_DOUBLE_EQ(*ParseStrictDouble("0"), 0.0);
  EXPECT_FALSE(ParseStrictDouble("").has_value());
  EXPECT_FALSE(ParseStrictDouble("abc").has_value());
  EXPECT_FALSE(ParseStrictDouble("1.5junk").has_value());
  EXPECT_FALSE(ParseStrictDouble("nan").has_value());
  EXPECT_FALSE(ParseStrictDouble("inf").has_value());
  EXPECT_FALSE(ParseStrictDouble("-inf").has_value());
  EXPECT_FALSE(ParseStrictDouble("1e999").has_value());
}

// ---------------------------------------------------------------------------
// Task / options marshalling.

BenchmarkTask TrickyTask() {
  // Values chosen to catch any text-formatting shortcut in the codec:
  // denormals, signed zero, near-overflow, and an LSB-off-one double only
  // survive a bit-pattern round-trip.
  std::vector<double> values = {
      3.141592653589793,
      5e-324,                      // Smallest denormal.
      -0.0,
      1.7976931348623157e308,      // DBL_MAX.
      std::nextafter(1.0, 2.0),
      -123456.789,
  };
  BenchmarkTask task;
  task.dataset = "tricky/dataset with spaces\nand a newline";
  task.series = ts::TimeSeries::Univariate(std::move(values));
  task.series.set_name("tricky");
  task.series.set_frequency(ts::Frequency::kMinutes15);
  task.series.set_domain(ts::Domain::kEnergy);
  task.series.set_seasonal_period(96);
  task.method = "LinearRegression";
  task.horizon = 24;
  task.params.horizon = 24;
  task.params.lookback = 104;
  task.params.period = 96;
  task.params.seed = 0xDEADBEEFCAFEull;
  task.params.train_epochs = -3;  // Negative survives the int round-trip.
  task.rolling.metrics = {eval::Metric::kMase, eval::Metric::kSmape,
                          eval::Metric::kMae};
  task.rolling.stride = 7;
  task.rolling.split.train = 0.6;
  task.rolling.split.val = 0.15;
  task.rolling.split.test = 0.25;
  task.rolling.scaler = ts::ScalerKind::kMinMax;
  task.rolling.max_windows = 11;
  task.rolling.batch_size = 32;
  task.rolling.drop_last = true;
  task.rolling.seasonality = 12;
  task.hyper_search = true;
  task.max_hyper_sets = 5;
  return task;
}

TEST(Wire, TaskRoundTripIsBitExact) {
  const BenchmarkTask task = TrickyTask();
  const std::string blob = SerializeTask(task);
  ASSERT_FALSE(blob.empty());
  BenchmarkTask back;
  ASSERT_TRUE(DeserializeTask(blob, &back));

  EXPECT_EQ(back.dataset, task.dataset);
  EXPECT_EQ(back.method, task.method);
  EXPECT_EQ(back.horizon, task.horizon);
  EXPECT_EQ(back.series.name(), task.series.name());
  EXPECT_EQ(back.series.frequency(), task.series.frequency());
  EXPECT_EQ(back.series.domain(), task.series.domain());
  EXPECT_EQ(back.series.seasonal_period(), task.series.seasonal_period());
  const linalg::Matrix& a = task.series.values();
  const linalg::Matrix& b = back.series.values();
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  // memcmp, not ==: -0.0 and the denormal must survive bit-for-bit.
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
  EXPECT_EQ(back.params.horizon, task.params.horizon);
  EXPECT_EQ(back.params.lookback, task.params.lookback);
  EXPECT_EQ(back.params.period, task.params.period);
  EXPECT_EQ(back.params.seed, task.params.seed);
  EXPECT_EQ(back.params.train_epochs, task.params.train_epochs);
  EXPECT_EQ(back.rolling.metrics, task.rolling.metrics);
  EXPECT_EQ(back.rolling.stride, task.rolling.stride);
  EXPECT_EQ(back.rolling.split.train, task.rolling.split.train);
  EXPECT_EQ(back.rolling.split.val, task.rolling.split.val);
  EXPECT_EQ(back.rolling.split.test, task.rolling.split.test);
  EXPECT_EQ(back.rolling.scaler, task.rolling.scaler);
  EXPECT_EQ(back.rolling.max_windows, task.rolling.max_windows);
  EXPECT_EQ(back.rolling.batch_size, task.rolling.batch_size);
  EXPECT_EQ(back.rolling.drop_last, task.rolling.drop_last);
  EXPECT_EQ(back.rolling.seasonality, task.rolling.seasonality);
  EXPECT_EQ(back.hyper_search, task.hyper_search);
  EXPECT_EQ(back.max_hyper_sets, task.max_hyper_sets);
}

TEST(Wire, TaskWithCustomCandidatesCannotBeMarshalled) {
  BenchmarkTask task = TrickyTask();
  task.custom_candidates.push_back({"InMemoryOnly", nullptr});
  EXPECT_FALSE(TaskIsMarshallable(task));
  EXPECT_TRUE(SerializeTask(task).empty());
}

TEST(Wire, TaskBlobRejectsTruncationTrailersAndBadVersion) {
  const std::string blob = SerializeTask(TrickyTask());
  ASSERT_FALSE(blob.empty());
  BenchmarkTask sink;
  // Every strict prefix is malformed: the bounds-checked reader must fail,
  // never read past the end (ASan-verifiable).
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    EXPECT_FALSE(DeserializeTask(std::string_view(blob.data(), cut), &sink))
        << "prefix of " << cut << " bytes";
  }
  EXPECT_FALSE(DeserializeTask(blob + "x", &sink));  // Trailing byte.
  std::string wrong_version = blob;
  wrong_version[0] = 2;
  EXPECT_FALSE(DeserializeTask(wrong_version, &sink));
}

TEST(Wire, WorkerOptionsRoundTripForcesCoordinatorConcernsOff) {
  RunnerOptions options;
  options.num_threads = 3;
  options.hyper_val_windows = 5;
  options.deadline_seconds = 1.25;
  options.max_retries = 2;
  options.retry_backoff_ms = 12.5;
  options.retry_backoff_max_ms = 750.0;
  options.fallback_method = "SeasonalNaive";
  options.isolation = Isolation::kProcess;
  options.memory_limit_mb = 512;
  options.cpu_limit_seconds = 9.5;
  // Coordinator-side concerns that must NOT propagate to a worker.
  options.journal_path = "/tmp/should-not-cross-the-wire.jsonl";
  options.journal_fsync = true;
  options.resume = true;
  options.verbose = true;
  options.progress = obs::ProgressMode::kAuto;

  RunnerOptions back;
  ASSERT_TRUE(DeserializeWorkerOptions(SerializeWorkerOptions(options), &back));
  EXPECT_EQ(back.num_threads, 3u);
  EXPECT_EQ(back.hyper_val_windows, 5u);
  EXPECT_DOUBLE_EQ(back.deadline_seconds, 1.25);
  EXPECT_EQ(back.max_retries, 2u);
  EXPECT_DOUBLE_EQ(back.retry_backoff_ms, 12.5);
  EXPECT_DOUBLE_EQ(back.retry_backoff_max_ms, 750.0);
  EXPECT_EQ(back.fallback_method, "SeasonalNaive");
  EXPECT_EQ(back.isolation, Isolation::kProcess);
  EXPECT_EQ(back.memory_limit_mb, 512u);
  EXPECT_DOUBLE_EQ(back.cpu_limit_seconds, 9.5);
  EXPECT_TRUE(back.journal_path.empty());
  EXPECT_FALSE(back.journal_fsync);
  EXPECT_FALSE(back.resume);
  EXPECT_FALSE(back.verbose);
  EXPECT_EQ(back.progress, obs::ProgressMode::kOff);

  RunnerOptions sink;
  EXPECT_FALSE(DeserializeWorkerOptions("", &sink));
  EXPECT_FALSE(DeserializeWorkerOptions("short", &sink));
}

// ---------------------------------------------------------------------------
// Fault plan grammar.

TEST(FaultPlan, ParsesBareClassesWithDefaultRates) {
  std::string error;
  const auto plan = ParseFaultPlan("drop, corrupt ,short,delay,partition",
                                   &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_DOUBLE_EQ(plan->drop, 0.05);
  EXPECT_DOUBLE_EQ(plan->corrupt, 0.05);
  EXPECT_DOUBLE_EQ(plan->short_write, 0.05);
  EXPECT_DOUBLE_EQ(plan->delay, 0.25);
  EXPECT_EQ(plan->partition_after, 8u);
  EXPECT_EQ(plan->partition_frames, 6u);
  EXPECT_TRUE(plan->any());
}

TEST(FaultPlan, ParsesExplicitValues) {
  std::string error;
  const auto plan = ParseFaultPlan(
      "drop=0.5,corrupt=0.25,short=0.1,delay=1,delay_ms=7,partition=3:5,"
      "seed=42",
      &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_DOUBLE_EQ(plan->drop, 0.5);
  EXPECT_DOUBLE_EQ(plan->corrupt, 0.25);
  EXPECT_DOUBLE_EQ(plan->short_write, 0.1);
  EXPECT_DOUBLE_EQ(plan->delay, 1.0);
  EXPECT_DOUBLE_EQ(plan->delay_ms, 7.0);
  EXPECT_EQ(plan->partition_after, 3u);
  EXPECT_EQ(plan->partition_frames, 5u);
  EXPECT_EQ(plan->seed, 42u);
}

TEST(FaultPlan, EmptySpecMeansNoFaults) {
  std::string error;
  const auto plan = ParseFaultPlan("", &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_FALSE(plan->any());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  std::string error;
  EXPECT_FALSE(ParseFaultPlan("bogus", &error).has_value());
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;
  EXPECT_FALSE(ParseFaultPlan("drop=1.5", &error).has_value());
  EXPECT_FALSE(ParseFaultPlan("drop=-0.1", &error).has_value());
  EXPECT_FALSE(ParseFaultPlan("drop=x", &error).has_value());
  EXPECT_FALSE(ParseFaultPlan("partition=3", &error).has_value());
  EXPECT_FALSE(ParseFaultPlan("partition=3:", &error).has_value());
  EXPECT_FALSE(ParseFaultPlan("partition=3:0", &error).has_value());
  EXPECT_FALSE(ParseFaultPlan("seed=", &error).has_value());
  EXPECT_FALSE(ParseFaultPlan("delay_ms=", &error).has_value());
}

TEST(FaultPlan, RoundTripsThroughCanonicalString) {
  std::string error;
  const auto plan =
      ParseFaultPlan("drop=0.125,short=0.25,partition=4:9,seed=7", &error);
  ASSERT_TRUE(plan.has_value()) << error;
  const auto back = ParseFaultPlan(FaultPlanToString(*plan), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_DOUBLE_EQ(back->drop, plan->drop);
  EXPECT_DOUBLE_EQ(back->corrupt, plan->corrupt);
  EXPECT_DOUBLE_EQ(back->short_write, plan->short_write);
  EXPECT_DOUBLE_EQ(back->delay, plan->delay);
  EXPECT_EQ(back->partition_after, plan->partition_after);
  EXPECT_EQ(back->partition_frames, plan->partition_frames);
  EXPECT_EQ(back->seed, plan->seed);
}

// ---------------------------------------------------------------------------
// Fault injection over real sockets.

struct SocketPair {
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    writer_fd = fds[0];
    reader_fd = fds[1];
  }
  ~SocketPair() {
    if (reader_fd >= 0) close(reader_fd);
    // writer_fd ownership is always taken by a Transport.
  }
  int writer_fd = -1;
  int reader_fd = -1;
};

/// Sends `n` frames through a fault-injecting transport and returns the raw
/// bytes its peer observed (after the sender closed).
std::string ObservedBytes(const FaultPlan& plan, std::uint64_t connection_id,
                          int n) {
  SocketPair pair;
  auto transport = WrapWithFaultInjection(
      MakeFdTransport(pair.writer_fd, "test"), plan, connection_id);
  for (int i = 0; i < n; ++i) {
    transport->Send(
        MakeFrame(FrameType::kStart, "1 " + std::to_string(i)));
  }
  transport->Close();
  std::string bytes;
  char chunk[4096];
  for (;;) {
    const ssize_t got = read(pair.reader_fd, chunk, sizeof(chunk));
    if (got <= 0) break;
    bytes.append(chunk, static_cast<std::size_t>(got));
  }
  return bytes;
}

TEST(FaultInjection, ScheduleIsDeterministicPerSeedAndConnection) {
  FaultPlan plan;
  plan.seed = 99;
  plan.corrupt = 0.5;  // Corruption mutates bytes without closing: the full
                       // observed stream fingerprints the fault schedule.
  const std::string a = ObservedBytes(plan, 3, 24);
  const std::string b = ObservedBytes(plan, 3, 24);
  EXPECT_EQ(a, b) << "same (seed, connection) must inject identical faults";
  const std::string other_conn = ObservedBytes(plan, 4, 24);
  EXPECT_NE(a, other_conn);
  FaultPlan other_seed = plan;
  other_seed.seed = 100;
  EXPECT_NE(a, ObservedBytes(other_seed, 3, 24));
}

TEST(FaultInjection, PartitionBlackholesTheConfiguredWindow) {
  FaultPlan plan;
  plan.partition_after = 2;
  plan.partition_frames = 3;

  SocketPair pair;
  auto transport = WrapWithFaultInjection(
      MakeFdTransport(pair.writer_fd, "test"), plan, 0);
  for (int i = 0; i < 8; ++i) {
    std::string payload = "p";
    payload += std::to_string(i);
    // Blackholed sends still report success — the sender cannot tell.
    EXPECT_TRUE(transport->Send(MakeFrame(FrameType::kStart, payload)));
    if (i % 2 == 0) {
      // Heartbeats do not advance the partition counter (they come from a
      // timer thread; counting them would make the trigger point racy).
      EXPECT_TRUE(
          transport->Send(MakeFrame(FrameType::kHeartbeat, "hb")));
    }
  }
  transport->Close();

  auto peer = MakeFdTransport(pair.reader_fd, "peer");
  pair.reader_fd = -1;  // Owned by `peer` now.
  std::vector<Frame> received;
  while (peer->Recv(&received, 2000) == Transport::RecvResult::kFrames) {
  }
  std::vector<std::string> data_payloads;
  for (const Frame& f : received) {
    if (f.type == FrameType::kStart) data_payloads.push_back(f.payload);
  }
  // Data frames 3,4,5 (1-based) fell into the partition window.
  EXPECT_EQ(data_payloads,
            (std::vector<std::string>{"p0", "p1", "p5", "p6", "p7"}));
}

TEST(FaultInjection, DropClosesTheConnectionMidConversation) {
  FaultPlan plan;
  plan.drop = 1.0;
  SocketPair pair;
  auto transport = WrapWithFaultInjection(
      MakeFdTransport(pair.writer_fd, "test"), plan, 0);
  EXPECT_FALSE(transport->Send(MakeFrame(FrameType::kStart, "dropped")));
  auto peer = MakeFdTransport(pair.reader_fd, "peer");
  pair.reader_fd = -1;
  std::vector<Frame> received;
  EXPECT_EQ(peer->Recv(&received, 2000), Transport::RecvResult::kEof);
  EXPECT_TRUE(received.empty());
}

TEST(FaultInjection, ShortWriteLeavesATornFrameThePeerDiscards) {
  FaultPlan plan;
  plan.short_write = 1.0;
  SocketPair pair;
  auto transport = WrapWithFaultInjection(
      MakeFdTransport(pair.writer_fd, "test"), plan, 0);
  EXPECT_FALSE(transport->Send(
      MakeFrame(FrameType::kRow, "1 0 1 0 0.5\n{a row payload}")));
  auto peer = MakeFdTransport(pair.reader_fd, "peer");
  pair.reader_fd = -1;
  std::vector<Frame> received;
  // The strict prefix never completes a frame; the close turns into EOF.
  EXPECT_EQ(peer->Recv(&received, 2000), Transport::RecvResult::kEof);
  EXPECT_TRUE(received.empty());
}

TEST(FaultInjection, CorruptionIsInvisibleToTheSenderButKillsTheReceiver) {
  FaultPlan plan;
  plan.corrupt = 1.0;
  SocketPair pair;
  auto transport = WrapWithFaultInjection(
      MakeFdTransport(pair.writer_fd, "test"), plan, 0);
  const Frame original = MakeFrame(FrameType::kRow, "1 0 1 0 0.5\n{row}");
  EXPECT_TRUE(transport->Send(original));  // Sender sees success.
  transport->Close();
  auto peer = MakeFdTransport(pair.reader_fd, "peer");
  pair.reader_fd = -1;
  std::vector<Frame> received;
  Transport::RecvResult r;
  while ((r = peer->Recv(&received, 2000)) == Transport::RecvResult::kFrames) {
  }
  // A flipped bit may land anywhere in the frame; whatever it hit, the
  // original must not be accepted (CRC or magic catches it).
  for (const Frame& f : received) {
    EXPECT_FALSE(f.type == original.type && f.payload == original.payload);
  }
  EXPECT_TRUE(r == Transport::RecvResult::kCorrupt ||
              r == Transport::RecvResult::kEof);
}

// ---------------------------------------------------------------------------
// TCP loopback.

TEST(Tcp, LoopbackListenConnectEchoAndEof) {
  std::string error;
  auto listener = TcpListener::Listen("127.0.0.1", 0, &error);
  ASSERT_NE(listener, nullptr) << error;
  EXPECT_GT(listener->port(), 0);

  auto client = TcpConnect("127.0.0.1", listener->port(), &error);
  ASSERT_NE(client, nullptr) << error;
  auto server = listener->Accept();
  ASSERT_NE(server, nullptr);
  EXPECT_NE(server->Describe().find("tcp:"), std::string::npos);

  ASSERT_TRUE(client->Send(MakeFrame(FrameType::kHello, "1 0 123")));
  ASSERT_TRUE(client->Send(MakeFrame(FrameType::kHeartbeat, "1")));
  std::vector<Frame> at_server;
  while (at_server.size() < 2) {
    ASSERT_EQ(server->Recv(&at_server, 5000), Transport::RecvResult::kFrames);
  }
  EXPECT_EQ(at_server[0].payload, "1 0 123");
  EXPECT_EQ(at_server[1].type, FrameType::kHeartbeat);

  ASSERT_TRUE(server->Send(MakeFrame(FrameType::kWelcome, "1 0.25\nblob")));
  std::vector<Frame> at_client;
  ASSERT_EQ(client->Recv(&at_client, 5000), Transport::RecvResult::kFrames);
  ASSERT_EQ(at_client.size(), 1u);
  EXPECT_EQ(at_client[0].payload, "1 0.25\nblob");

  client->Close();
  std::vector<Frame> rest;
  EXPECT_EQ(server->Recv(&rest, 5000), Transport::RecvResult::kEof);
}

TEST(Tcp, ConnectToDeadPortFailsWithError) {
  // Bind an ephemeral port, then close the listener: connecting to the now
  // dead port must fail cleanly with a populated error.
  std::string error;
  auto listener = TcpListener::Listen("127.0.0.1", 0, &error);
  ASSERT_NE(listener, nullptr) << error;
  const std::uint16_t port = listener->port();
  listener->Close();
  auto client = TcpConnect("127.0.0.1", port, &error);
  EXPECT_EQ(client, nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(Tcp, ListenOnBadAddressFails) {
  std::string error;
  EXPECT_EQ(TcpListener::Listen("not-an-address", 0, &error), nullptr);
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace tfb::pipeline
