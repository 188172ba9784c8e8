// Canonical JSON and experiment-config parsing: SHA-256, the shortest
// round-trip number forms, serve::Json, and the canonical config writer
// that pins every parsed field. The headline properties under test:
//
//   * canonical_config_json is byte-stable, covers every key=value key,
//     and leaves out only the result-neutral kernel knobs;
//   * parse_experiment_config refuses unknown keys and out-of-range values
//     by name.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/config.hpp"
#include "common/numfmt.hpp"
#include "common/sha256.hpp"
#include "driver/experiment_config.hpp"
#include "driver/simulate.hpp"
#include "serve/json.hpp"

namespace ownsim {
namespace {

using serve::Json;


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
// Canonical config

TEST(CanonicalConfig, ByteStableAcrossCalls) {
  const ExperimentConfig config = parse_experiment_config(Config::from_string(
      "topology=own cores=256 pattern=UN rate=0.004 warmup=100 measure=200 "
      "seed=7"));
  EXPECT_EQ(canonical_config_json(config), canonical_config_json(config));
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
  // Out-of-range values are refused by key name instead of printing
  // nonsense (NaN throughput, p99 below the mean, negative power).
  for (const char* bad : {
           "measure=0",
           "measure=-1",
           "warmup=-100000",
           "drain=-5",
           "clock_ghz=0",
           "clock_ghz=-1",
           "clock_ghz=nan",
           "clock_ghz=inf",
           "flit_bits=0",
           "flit_bits=-8",
       }) {
    const std::string text(bad);
    const std::string key = text.substr(0, text.find('='));
    try {
      parse_experiment_config(Config::from_string(text));
      ADD_FAILURE() << text << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << text << ": " << e.what();
    }
  }
  // Zero-length warmup and drain stay legal.
  EXPECT_NO_THROW(
      parse_experiment_config(Config::from_string("warmup=0 drain=0")));
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
           // Short sweep points as ownsim_cli and config files write them.
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
// hand-kept field lists; they pin the canonical form of every key.
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
  const std::string default_json =
      canonical_config_json(parse_experiment_config(Config{}));
  for (const std::string& key : every.keys()) {
    Config one;
    one.set(key, every.require_string(key));
    const std::string json =
        canonical_config_json(parse_experiment_config(one));
    // parse -> dump through the generic Json layer is a no-op.
    EXPECT_EQ(Json::parse(json).dump(), json) << key;
    // The kernel knobs are result-neutral (§5e/§5i): the same experiment.
    const bool neutral =
        key == "kernel" || key == "threads" || key == "partitions";
    EXPECT_EQ(json == default_json, neutral) << key;
  }
}

}  // namespace
}  // namespace ownsim
