// Serve subsystem: canonical JSON, cache keys, the content-addressed result
// store, and the ExperimentService scheduling/memoization contract
// (DESIGN.md §5g). The headline properties under test:
//
//   * canonical_config_json is byte-stable and round-trips exactly;
//   * the store NEVER serves bytes that fail verification (truncation, bit
//     flips, header mismatches all reject + recompute);
//   * a cache hit is bit-identical to a fresh run;
//   * N concurrent identical submissions simulate exactly once.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/numfmt.hpp"
#include "common/sha256.hpp"
#include "driver/experiment_config.hpp"
#include "driver/simulate.hpp"
#include "serve/json.hpp"
#include "serve/result_store.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace ownsim {
namespace {

using serve::Json;

std::filesystem::path fresh_temp_dir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("ownsim_serve_test_" + tag + "_" + format_int(::getpid()) + "_" +
       format_int(++counter));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A tiny OWN-256 point that still exercises warmup/measure/drain.
ExperimentConfig small_config(std::uint64_t seed = 7) {
  ExperimentConfig config = parse_experiment_config(Config::from_string(
      "topology=own cores=256 pattern=UN rate=0.004 warmup=100 measure=200"));
  config.injector.master_seed = seed;
  return config;
}

// ---------------------------------------------------------------------------
// SHA-256

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnop"
                       "nopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Sha256 hasher;
  hasher.update("hello ");
  hasher.update("world");
  EXPECT_EQ(hasher.hex_digest(), sha256_hex("hello world"));
}

TEST(Sha256, LongInputCrossesBlockBoundaries) {
  const std::string block(1000, 'a');
  Sha256 hasher;
  for (int i = 0; i < 1000; ++i) hasher.update(block);
  // NIST vector: one million 'a'.
  EXPECT_EQ(hasher.hex_digest(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// ---------------------------------------------------------------------------
// numfmt

TEST(NumFmt, ShortestRoundTrip) {
  EXPECT_EQ(format_double(2.0), "2");
  EXPECT_EQ(format_double(0.004), "0.004");
  EXPECT_EQ(format_double(-1.0), "-1");
  EXPECT_EQ(std::stod(format_double(0.1)), 0.1);
  EXPECT_EQ(std::stod(format_double(1e300)), 1e300);
  EXPECT_EQ(format_int(-42), "-42");
  EXPECT_EQ(format_uint(std::uint64_t{18446744073709551615ull}),
            "18446744073709551615");
}

TEST(NumFmt, NonFiniteThrows) {
  EXPECT_THROW(format_double(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(format_double(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// serve::Json

TEST(ServeJson, CanonicalDumpSortsKeys) {
  Json::Object o;
  o["zebra"] = Json(1);
  o["alpha"] = Json(true);
  o["mid"] = Json("x");
  EXPECT_EQ(Json(std::move(o)).dump(),
            "{\"alpha\":true,\"mid\":\"x\",\"zebra\":1}");
}

TEST(ServeJson, ParseDumpIsIdentityOnCanonicalText) {
  const std::string canonical =
      "{\"a\":[1,2.5,\"s\",null,false],\"b\":{\"n\":-3},\"c\":\"\\\"q\\\\\"}";
  EXPECT_EQ(Json::parse(canonical).dump(), canonical);
}

TEST(ServeJson, Int64SurvivesRoundTrip) {
  const std::string text = "{\"seed\":9223372036854775807}";
  const Json parsed = Json::parse(text);
  EXPECT_TRUE(parsed.find("seed")->is_int());
  EXPECT_EQ(parsed.find("seed")->as_int(), 9223372036854775807LL);
  EXPECT_EQ(parsed.dump(), text);
}

TEST(ServeJson, EscapesAndUnicode) {
  const Json parsed = Json::parse("\"a\\u0041\\n\\t\\u00e9\"");
  EXPECT_EQ(parsed.as_string(), "aA\n\t\xc3\xa9");
}

TEST(ServeJson, MalformedInputThrows) {
  EXPECT_THROW(Json::parse("{"), std::invalid_argument);
  EXPECT_THROW(Json::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), std::invalid_argument);
  EXPECT_THROW(Json::parse("nul"), std::invalid_argument);
  EXPECT_THROW(Json::parse(""), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Canonical config + cache keys

TEST(CanonicalConfig, ByteStableAcrossCalls) {
  const ExperimentConfig config = small_config();
  EXPECT_EQ(canonical_config_json(config), canonical_config_json(config));
}

TEST(CanonicalConfig, RoundTripsExactly) {
  ExperimentConfig config = parse_experiment_config(Config::from_string(
      "topology=own cores=256 pattern=BR rate=0.006 config=3 "
      "scenario=conservative warmup=500 measure=1000 seed=42 fault=1 "
      "fault_ber=1e-9 fault_kill=1:5@700 watchdog=5000"));
  const std::string first = canonical_config_json(config);
  const ExperimentConfig reparsed =
      experiment_config_from_canonical_json(first);
  EXPECT_EQ(canonical_config_json(reparsed), first);
  // parse -> dump through the generic Json layer is also a no-op.
  EXPECT_EQ(Json::parse(first).dump(), first);
}

TEST(CanonicalConfig, UnknownKeyThrows) {
  EXPECT_THROW(experiment_config_from_canonical_json("{\"not_a_field\":1}"),
               std::invalid_argument);
}

TEST(CacheKey, KernelChoiceSharesOneEntry) {
  // activity vs lockstep is bit-identical by the §5e contract, so both
  // kernels may share a cache entry: the kernel is not part of the key.
  ExperimentConfig activity = small_config();
  activity.kernel = KernelMode::kActivity;
  ExperimentConfig lockstep = small_config();
  lockstep.kernel = KernelMode::kLockstep;
  EXPECT_EQ(experiment_cache_key(activity), experiment_cache_key(lockstep));
}

TEST(CacheKey, SeedRateAndVersionSeparateEntries) {
  const ExperimentConfig base = small_config(7);
  EXPECT_NE(experiment_cache_key(base), experiment_cache_key(small_config(8)));
  ExperimentConfig faster = small_config(7);
  faster.rate = 0.005;
  EXPECT_NE(experiment_cache_key(base), experiment_cache_key(faster));
  EXPECT_NE(experiment_cache_key(base, "other-version"),
            experiment_cache_key(base));
  EXPECT_EQ(experiment_cache_key(base),
            experiment_cache_key(base, code_version()));
}

TEST(ParseExperimentConfig, ValidatesInput) {
  EXPECT_THROW(parse_experiment_config(Config::from_string("config=5")),
               std::invalid_argument);
  EXPECT_THROW(parse_experiment_config(Config::from_string("scenario=bogus")),
               std::invalid_argument);
  EXPECT_THROW(parse_experiment_config(Config::from_string("kernel=bogus")),
               std::invalid_argument);
  EXPECT_THROW(
      parse_experiment_config(Config::from_string("fault_kill=oops")),
      std::invalid_argument);
  const ExperimentConfig config = parse_experiment_config(
      Config::from_string("watchdog=1234 fault_token_loss=0@50:never"));
  EXPECT_TRUE(config.fault.watchdog);
  EXPECT_EQ(config.fault.watchdog_window, 1234);
  ASSERT_EQ(config.fault.events.size(), 1u);
  EXPECT_EQ(config.fault.events[0].recovery, kNeverCycle);
}

TEST(ParseExperimentConfig, RejectsUnknownKeys) {
  try {
    parse_experiment_config(
        Config::from_string("topology=own adapt_refesh=200"));
    FAIL() << "a misspelt key must not run with the default";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("adapt_refesh"), std::string::npos)
        << e.what();
  }
  // A caller's own vocabulary passes through only when it declares it.
  const Config cli = Config::from_string("rate=0.002 report=json");
  EXPECT_THROW(parse_experiment_config(cli), std::invalid_argument);
  EXPECT_EQ(parse_experiment_config(cli, {"report"}).rate, 0.002);
}

TEST(ParseExperimentConfig, AcceptsBenchmarkAndServeVocabulary) {
  for (const char* text : {
           // benchmark/harness.cpp workloads and their kernel A/B reruns.
           "topology=own cores=1024 config=4 scenario=ideal pattern=UN "
           "rate=0.004 seed=1 warmup=1500 measure=4000 drain=30000 "
           "kernel=parallel threads=4",
           "topology=own cores=256 pattern=UN rate=0.003 fault=1 "
           "fault_margin_db=-8 fault_flaps=32 watchdog=20000 adapt=1 seed=1 "
           "adapt_seed=1 warmup=2000 measure=300000 fault_horizon=300000 "
           "fault_kill=0:2@50000 fault_token_loss=3@150000:64 "
           "kernel=lockstep",
           "topology=own cores=1024",
           // The CI serve smoke's sweep.conf.
           "topology=own cores=256 pattern=UN rate=0.004 warmup=200 "
           "measure=600 seed=9 kernel=activity",
           "topology=cmesh cores=256 rate=0.002 warmup=200 measure=600 seed=3",
       }) {
    EXPECT_NO_THROW(parse_experiment_config(Config::from_string(text)))
        << text;
  }
}

// Every key=value key set to a non-default value. The canonical-config
// digests below were recorded before one field table replaced the three
// hand-kept field lists; they pin every existing cache key.
constexpr char kEveryKey[] =
    "topology=cmesh cores=64 pattern=BR rate=0.006 config=2 "
    "scenario=conservative warmup=700 measure=1700 drain=9000 packet_flits=3 "
    "seed=11 concentration=2 vcs=6 buffer_depth=5 clock_ghz=2.5 "
    "ideal_arbitration=1 o1turn=1 flit_bits=64 kernel=lockstep threads=2 "
    "partitions=3 fault=1 fault_seed=13 fault_ber=1e-9 fault_margin_db=-3 "
    "fault_flaps=3 fault_flap_down=150 fault_horizon=5000 "
    "fault_kill=1:5@700 fault_token_loss=2@900:never watchdog=5000 adapt=1 "
    "adapt_react=0 adapt_refresh=300 adapt_seed=5 adapt_sigma_db=0.7 "
    "adapt_ring_sigma_c=1.5 adapt_snr_required_db=16 adapt_margin_db=3 "
    "adapt_temp_coeff=0.1 adapt_alpha=0.8 adapt_iterations=200 "
    "adapt_backoff_enter=1.5 adapt_backoff_exit=2.5 adapt_backoff_gain=2 "
    "adapt_max_backoff=3 adapt_sustain=4 adapt_realloc_enter=0.5 "
    "adapt_realloc_exit=1.5 adapt_trim_uw=40";

std::string canonical_digest(const std::string& text) {
  return sha256_hex(canonical_config_json(
      parse_experiment_config(Config::from_string(text))));
}

TEST(CanonicalConfig, DigestsPinned) {
  EXPECT_EQ(canonical_digest(""),
            "b7ca16e51828126f4e06f9965b8df9e0299464f056bd2b5663bc8a531f514339");
  EXPECT_EQ(canonical_digest(kEveryKey),
            "40aaf58976ae9b403e55aeb2d781be5aa0421469dc52fecaf6098d73e22a243e");
  EXPECT_EQ(canonical_digest("topology=file:" + std::string(OWNSIM_SOURCE_DIR) +
                             "/configs/topologies/own256.topo.json"),
            "d87174e9c58e7630102b7fb90312f19c20edfd1d1104c026549a645a99eea3f2");
}

TEST(CanonicalConfig, EveryKeyReachesTheCacheKeyAndRoundTrips) {
  const Config every = Config::from_string(kEveryKey);
  EXPECT_EQ(every.keys(), experiment_config_keys());
  const std::string default_key =
      experiment_cache_key(parse_experiment_config(Config{}));
  for (const std::string& key : every.keys()) {
    Config one;
    one.set(key, every.require_string(key));
    const ExperimentConfig config = parse_experiment_config(one);
    const std::string json = canonical_config_json(config);
    EXPECT_EQ(canonical_config_json(experiment_config_from_canonical_json(json)),
              json)
        << key;
    // The kernel knobs are result-neutral (§5e/§5i): one cache entry.
    const bool neutral =
        key == "kernel" || key == "threads" || key == "partitions";
    EXPECT_EQ(experiment_cache_key(config) == default_key, neutral) << key;
  }
}

// ---------------------------------------------------------------------------
// ResultStore

TEST(ResultStore, PutLoadRoundTrip) {
  serve::ResultStore store(fresh_temp_dir("store"));
  const std::string key(64, 'a');
  const std::string payload = "{\"answer\":42}";
  EXPECT_FALSE(store.load(key).has_value());
  store.put(key, payload);
  const auto loaded = store.load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, payload);
  const auto stats = store.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.writes, 1);
  EXPECT_EQ(stats.corrupt_rejected, 0);
}

TEST(ResultStore, RejectsBadKeys) {
  serve::ResultStore store(fresh_temp_dir("badkey"));
  EXPECT_THROW(store.load("short"), std::invalid_argument);
  EXPECT_THROW(store.load(std::string(64, 'G')), std::invalid_argument);
}

TEST(ResultStore, SecondPutOfValidEntryIsANoOp) {
  serve::ResultStore store(fresh_temp_dir("noop"));
  const std::string key(64, 'b');
  store.put(key, "payload");
  store.put(key, "payload");
  EXPECT_EQ(store.stats().writes, 1);
}

TEST(ResultStore, TruncatedEntryRejectedAndRecomputable) {
  serve::ResultStore store(fresh_temp_dir("trunc"));
  const std::string key(64, 'c');
  store.put(key, "a payload long enough to truncate meaningfully");
  std::filesystem::resize_file(store.entry_path(key), 40);
  EXPECT_FALSE(store.load(key).has_value());
  EXPECT_EQ(store.stats().corrupt_rejected, 1);
  // The bad entry is gone; a recompute can publish cleanly and serve again.
  EXPECT_FALSE(std::filesystem::exists(store.entry_path(key)));
  store.put(key, "a payload long enough to truncate meaningfully");
  EXPECT_TRUE(store.load(key).has_value());
}

TEST(ResultStore, BitFlipRejected) {
  serve::ResultStore store(fresh_temp_dir("flip"));
  const std::string key(64, 'd');
  store.put(key, "the quick brown fox jumps over the lazy dog");
  const std::filesystem::path path = store.entry_path(key);
  // Flip one byte inside the payload (past the ~170-byte header).
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekg(0, std::ios::end);
  const std::streamoff size = file.tellg();
  file.seekp(size - 5);
  file.put('X');
  file.close();
  EXPECT_FALSE(store.load(key).has_value());
  EXPECT_EQ(store.stats().corrupt_rejected, 1);
}

TEST(ResultStore, TrailingGarbageRejected) {
  serve::ResultStore store(fresh_temp_dir("garbage"));
  const std::string key(64, 'e');
  store.put(key, "payload");
  std::ofstream(store.entry_path(key), std::ios::app) << "extra";
  EXPECT_FALSE(store.load(key).has_value());
  EXPECT_EQ(store.stats().corrupt_rejected, 1);
}

TEST(ResultStore, WrongKeyInHeaderRejected) {
  serve::ResultStore store(fresh_temp_dir("miskey"));
  const std::string key_a(64, '1');
  const std::string key_b(64, '2');
  store.put(key_a, "payload");
  std::filesystem::create_directories(store.entry_path(key_b).parent_path());
  std::filesystem::copy_file(store.entry_path(key_a),
                             store.entry_path(key_b));
  EXPECT_FALSE(store.load(key_b).has_value());  // header says key_a
  EXPECT_EQ(store.stats().corrupt_rejected, 1);
  EXPECT_TRUE(store.load(key_a).has_value());
}

TEST(ResultStore, ConcurrentSameKeyWriters) {
  serve::ResultStore store(fresh_temp_dir("race"));
  const std::string key(64, 'f');
  const std::string payload(8192, 'x');
  std::vector<std::thread> writers;
  writers.reserve(8);
  for (int i = 0; i < 8; ++i) {
    writers.emplace_back([&store, &key, &payload] {
      for (int j = 0; j < 4; ++j) store.put(key, payload);
    });
  }
  for (std::thread& t : writers) t.join();
  const auto loaded = store.load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, payload);
  EXPECT_EQ(store.stats().corrupt_rejected, 0);
  // No temp droppings left behind.
  int files = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(store.root())) {
    if (entry.is_regular_file()) ++files;
  }
  EXPECT_EQ(files, 1);
}

// ---------------------------------------------------------------------------
// ExperimentService

/// Collects events from one subscription and answers "has a terminal event
/// for job X arrived?" queries.
class EventLog {
 public:
  serve::ExperimentService::EventFn subscriber() {
    return [this](const Json& event) {
      std::lock_guard<std::mutex> lock(mu_);
      events_.push_back(event);
      cv_.notify_all();
    };
  }

  /// Blocks until `count` events with `kind` have arrived (any job);
  /// returns the first of them.
  Json wait_for(const std::string& kind, int count = 1,
                int timeout_ms = 30000) {
    std::unique_lock<std::mutex> lock(mu_);
    Json found;
    const bool ok = cv_.wait_for(
        lock, std::chrono::milliseconds(timeout_ms), [&] {
          int seen = 0;
          for (const Json& event : events_) {
            const Json* field = event.find("event");
            if (field != nullptr && field->as_string() == kind) {
              if (seen == 0) found = event;
              ++seen;
            }
          }
          return seen >= count;
        });
    if (!ok) {
      std::string received;
      for (const Json& event : events_) received += "  " + event.dump() + "\n";
      ADD_FAILURE() << "timed out waiting for event: " << kind
                    << "\nreceived so far:\n" << received;
    }
    return found;
  }

  std::vector<Json> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }

  int count(const std::string& kind) const {
    std::lock_guard<std::mutex> lock(mu_);
    int n = 0;
    for (const Json& event : events_) {
      const Json* field = event.find("event");
      if (field != nullptr && field->as_string() == kind) ++n;
    }
    return n;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Json> events_;
};

TEST(ExperimentService, CacheHitIsBitIdenticalToFreshRun) {
  serve::ServiceOptions options;
  options.store_dir = fresh_temp_dir("svc_hit");
  options.threads = 2;
  serve::ExperimentService service(options);
  const ExperimentConfig config = small_config();

  EventLog first;
  const auto outcome1 = service.submit(config, 0, first.subscriber());
  EXPECT_FALSE(outcome1.cache_hit);
  const Json done1 = first.wait_for("done");
  EXPECT_FALSE(done1.find("cache_hit")->as_bool());
  const std::string sha1 = done1.find("result_sha256")->as_string();
  const std::string result1 = done1.find("result")->dump();

  EventLog second;
  const auto outcome2 = service.submit(config, 0, second.subscriber());
  EXPECT_TRUE(outcome2.cache_hit);
  EXPECT_EQ(outcome2.cache_key, outcome1.cache_key);
  const Json done2 = second.wait_for("done");
  EXPECT_TRUE(done2.find("cache_hit")->as_bool());
  EXPECT_EQ(done2.find("result_sha256")->as_string(), sha1);
  EXPECT_EQ(done2.find("result")->dump(), result1);

  // The served bytes equal a fresh, independent simulation of the config.
  const std::string fresh = experiment_result_json(run_experiment(config));
  EXPECT_EQ(sha256_hex(fresh), sha1);

  const auto loaded = service.store().load(outcome1.cache_key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, fresh);
  service.shutdown(true);
}

TEST(ExperimentService, ConcurrentIdenticalSubmissionsSimulateOnce) {
  serve::ServiceOptions options;
  options.store_dir = fresh_temp_dir("svc_dedupe");
  options.threads = 1;
  serve::ExperimentService service(options);

  // Larger phases keep the point in flight while the duplicates arrive
  // (submission is microseconds; the run is many milliseconds).
  ExperimentConfig config = small_config();
  config.phases.warmup = 1000;
  config.phases.measure = 4000;

  constexpr int kSubmissions = 4;
  EventLog log;
  std::string job_id;
  for (int i = 0; i < kSubmissions; ++i) {
    const auto outcome = service.submit(config, 0, log.subscriber());
    if (i == 0) {
      job_id = outcome.job_id;
      EXPECT_FALSE(outcome.attached);
    } else {
      EXPECT_TRUE(outcome.attached) << "duplicate " << i;
      EXPECT_EQ(outcome.job_id, job_id);
    }
  }
  // Every subscriber of the shared job sees the done event.
  log.wait_for("done", kSubmissions);
  EXPECT_EQ(log.count("done"), kSubmissions);

  const Json stats = service.stats();
  EXPECT_EQ(stats.find("accepted")->as_int(), kSubmissions);
  EXPECT_EQ(stats.find("inflight_dedup")->as_int(), kSubmissions - 1);
  EXPECT_EQ(stats.find("computed")->as_int(), 1);
  EXPECT_EQ(stats.find("store")->find("writes")->as_int(), 1);
  service.shutdown(true);
}

TEST(ExperimentService, PriorityOrdersQueuedJobs) {
  serve::ServiceOptions options;
  options.store_dir = fresh_temp_dir("svc_prio");
  options.threads = 1;
  serve::ExperimentService service(options);

  // Occupy the single worker, then queue low before high: the high-priority
  // point must start first anyway.
  ExperimentConfig blocker = small_config(100);
  blocker.phases.warmup = 1000;
  blocker.phases.measure = 4000;
  EventLog blocker_log;
  service.submit(blocker, 0, blocker_log.subscriber());

  std::mutex order_mu;
  std::vector<std::string> started_order;
  const auto track = [&](const std::string& tag) {
    return [&, tag](const Json& event) {
      if (event.find("event")->as_string() == "started") {
        std::lock_guard<std::mutex> lock(order_mu);
        started_order.push_back(tag);
      }
    };
  };
  EventLog low_log;
  const auto low = service.submit(small_config(101), 0, track("low"));
  const auto high = service.submit(small_config(102), 5, track("high"));
  EXPECT_NE(low.job_id, high.job_id);

  service.shutdown(true);  // drains the queue
  std::lock_guard<std::mutex> lock(order_mu);
  ASSERT_EQ(started_order.size(), 2u);
  EXPECT_EQ(started_order[0], "high");
  EXPECT_EQ(started_order[1], "low");
}

TEST(ExperimentService, CancelQueuedJobNeverSimulates) {
  serve::ServiceOptions options;
  options.store_dir = fresh_temp_dir("svc_cancel");
  options.threads = 1;
  serve::ExperimentService service(options);

  ExperimentConfig blocker = small_config(200);
  blocker.phases.warmup = 1000;
  blocker.phases.measure = 4000;
  EventLog blocker_log;
  service.submit(blocker, 0, blocker_log.subscriber());

  EventLog log;
  const auto queued = service.submit(small_config(201), 0, log.subscriber());
  EXPECT_TRUE(service.cancel(queued.job_id));
  const Json cancelled = log.wait_for("cancelled");
  EXPECT_EQ(cancelled.find("reason")->as_string(), "client_cancel");
  EXPECT_FALSE(service.cancel(queued.job_id));  // already terminal

  service.shutdown(true);
  EXPECT_FALSE(service.store().load(queued.cache_key).has_value());
  EXPECT_EQ(service.stats().find("cancelled")->as_int(), 1);
}

TEST(ExperimentService, ShutdownWithoutDrainCancelsRunningJobs) {
  serve::ServiceOptions options;
  options.store_dir = fresh_temp_dir("svc_abort");
  options.threads = 1;
  serve::ExperimentService service(options);

  ExperimentConfig longrun = small_config(300);
  longrun.phases.warmup = 50000;
  longrun.phases.measure = 200000;
  EventLog log;
  const auto outcome = service.submit(longrun, 0, log.subscriber());
  log.wait_for("started");
  service.shutdown(false);
  const Json cancelled = log.wait_for("cancelled");
  EXPECT_EQ(cancelled.find("reason")->as_string(), "shutdown");
  // Aborted runs are never cached.
  EXPECT_FALSE(service.store().load(outcome.cache_key).has_value());
  // Submissions after shutdown are rejected.
  EXPECT_TRUE(service.submit(small_config(301)).rejected);
}

// Regression: shutdown() must block until terminal events have been
// DELIVERED, not merely until jobs are terminal. The old finish_job released
// the job from active_ (waking shutdown) before emitting the done event, so
// ServeDaemon::stop could close client sockets while a subscriber was still
// mid-send — a use-after-close on the fd. A slow subscriber makes the window
// deterministic: if shutdown can return before delivery, the flag check
// fails every time.
TEST(ExperimentService, ShutdownDrainWaitsForDoneDelivery) {
  serve::ServiceOptions options;
  options.store_dir = fresh_temp_dir("svc_drain_deliver");
  options.threads = 1;
  serve::ExperimentService service(options);

  std::atomic<bool> done_delivered{false};
  service.submit(small_config(500), 0, [&](const Json& event) {
    if (event.find("event")->as_string() == "done") {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      done_delivered.store(true);
    }
  });
  service.shutdown(true);
  EXPECT_TRUE(done_delivered.load())
      << "shutdown(drain) returned before the done event was delivered";
}

TEST(ExperimentService, ShutdownNoDrainWaitsForCancelledDelivery) {
  serve::ServiceOptions options;
  options.store_dir = fresh_temp_dir("svc_abort_deliver");
  options.threads = 1;
  serve::ExperimentService service(options);

  ExperimentConfig longrun = small_config(501);
  longrun.phases.warmup = 50000;
  longrun.phases.measure = 200000;
  std::atomic<bool> cancelled_delivered{false};
  service.submit(longrun, 0, [&](const Json& event) {
    if (event.find("event")->as_string() == "cancelled") {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      cancelled_delivered.store(true);
    }
  });
  service.shutdown(false);
  EXPECT_TRUE(cancelled_delivered.load())
      << "shutdown(no drain) returned before the cancelled event was "
         "delivered";
}

TEST(ExperimentService, CorruptStoreEntryRecomputedNotServed) {
  serve::ServiceOptions options;
  options.store_dir = fresh_temp_dir("svc_corrupt");
  options.threads = 1;
  const ExperimentConfig config = small_config(400);
  std::string key;
  {
    serve::ExperimentService service(options);
    EventLog log;
    key = service.submit(config, 0, log.subscriber()).cache_key;
    log.wait_for("done");
    service.shutdown(true);
  }
  // Corrupt the entry on disk between daemon lifetimes.
  serve::ResultStore probe(options.store_dir);
  std::filesystem::resize_file(probe.entry_path(key), 60);
  {
    serve::ExperimentService service(options);
    EventLog log;
    const auto outcome = service.submit(config, 0, log.subscriber());
    EXPECT_FALSE(outcome.cache_hit);  // corrupt entry must not hit
    const Json done = log.wait_for("done");
    EXPECT_FALSE(done.find("cache_hit")->as_bool());
    const Json stats = service.stats();
    EXPECT_EQ(stats.find("store")->find("corrupt_rejected")->as_int(), 1);
    EXPECT_EQ(stats.find("computed")->as_int(), 1);
    service.shutdown(true);
  }
}

// ---------------------------------------------------------------------------
// End-to-end over the AF_UNIX socket

/// Minimal blocking JSONL client for the daemon protocol.
class LineClient {
 public:
  /// Throws on connect failure (gtest reports the exception as a failure).
  explicit LineClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      throw std::runtime_error("connect(" + path +
                               "): " + std::strerror(errno));
    }
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_line(const std::string& line) {
    const std::string framed = line + "\n";
    ASSERT_EQ(::send(fd_, framed.data(), framed.size(), 0),
              static_cast<ssize_t>(framed.size()));
  }

  /// Reads one newline-terminated JSON event.
  Json read_event() {
    std::size_t newline;
    while ((newline = buffer_.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        ADD_FAILURE() << "connection closed while waiting for an event";
        return Json(nullptr);
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    const std::string line = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return Json::parse(line);
  }

  /// Reads events until one with kind `kind` arrives; returns it.
  Json read_until(const std::string& kind) {
    for (int i = 0; i < 1000; ++i) {
      const Json event = read_event();
      if (event.is_null()) return event;
      const Json* field = event.find("event");
      if (field != nullptr && field->as_string() == kind) return event;
    }
    ADD_FAILURE() << "no " << kind << " event within 1000 events";
    return Json(nullptr);
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

TEST(ServeDaemon, EndToEndSubmitCacheAndShutdown) {
  const std::filesystem::path dir = fresh_temp_dir("daemon");
  serve::ServerOptions options;
  options.socket_path = (dir / "sock").string();
  options.service.store_dir = dir / "store";
  options.service.threads = 2;
  serve::ServeDaemon daemon(options);
  std::thread waiter([&daemon] { daemon.wait_for_shutdown(); });

  const std::string submit_line =
      "{\"verb\":\"submit\",\"config\":{\"topology\":\"own\",\"cores\":256,"
      "\"rate\":0.004,\"warmup\":100,\"measure\":200,\"seed\":11}}";
  std::string sha1;
  {
    LineClient client(options.socket_path);
    client.send_line("{\"verb\":\"ping\"}");
    const Json pong = client.read_event();
    EXPECT_EQ(pong.find("event")->as_string(), "pong");
    EXPECT_EQ(pong.find("code_version")->as_string(), code_version());

    client.send_line(submit_line);
    const Json accepted = client.read_until("accepted");
    EXPECT_FALSE(accepted.find("cache_hit")->as_bool());
    const Json done = client.read_until("done");
    EXPECT_FALSE(done.find("cache_hit")->as_bool());
    sha1 = done.find("result_sha256")->as_string();

    // Unknown verbs and bad JSON produce error events, not disconnects.
    client.send_line("{\"verb\":\"frobnicate\"}");
    EXPECT_EQ(client.read_event().find("event")->as_string(), "error");
    client.send_line("not json at all");
    EXPECT_EQ(client.read_event().find("event")->as_string(), "error");
    // So does a misspelt config key, instead of a cached default run.
    client.send_line(
        "{\"verb\":\"submit\",\"config\":{\"adapt_refesh\":200}}");
    const Json typo = client.read_event();
    EXPECT_EQ(typo.find("event")->as_string(), "error");
    EXPECT_NE(typo.find("error")->as_string().find("adapt_refesh"),
              std::string::npos);
  }
  {
    // Second submission on a fresh connection: served from the cache,
    // byte-identical.
    LineClient client(options.socket_path);
    client.send_line(submit_line);
    const Json accepted = client.read_until("accepted");
    EXPECT_TRUE(accepted.find("cache_hit")->as_bool());
    const Json done = client.read_until("done");
    EXPECT_TRUE(done.find("cache_hit")->as_bool());
    EXPECT_EQ(done.find("result_sha256")->as_string(), sha1);

    client.send_line("{\"verb\":\"stats\"}");
    const Json stats = client.read_until("stats");
    EXPECT_EQ(stats.find("accepted")->as_int(), 2);
    EXPECT_EQ(stats.find("cache_hits")->as_int(), 1);
    EXPECT_EQ(stats.find("computed")->as_int(), 1);

    client.send_line("{\"verb\":\"shutdown\",\"drain\":true}");
    EXPECT_EQ(client.read_until("shutdown_ack").find("drain")->as_bool(),
              true);
  }
  waiter.join();  // wait_for_shutdown returned -> clean teardown
  EXPECT_FALSE(std::filesystem::exists(options.socket_path));
}

}  // namespace
}  // namespace ownsim
