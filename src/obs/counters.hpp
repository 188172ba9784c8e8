// Low-overhead observability counters.
//
// A `Registry` owns named 64-bit slots; components resolve `Counter` /
// `Gauge` handles ONCE at registration (a handle is a raw pointer to its
// slot), so the hot-path cost of an increment is one indirect add — no map
// lookup, no lock, no branch beyond the unbound-handle check. A registry
// belongs to one `Network`, and one thread runs a network, so slots are
// plain integers.
//
// Counters are observational by contract: nothing in src/ may read a counter
// to make a simulated decision, so results are bit-identical whether the
// subsystem is enabled, disabled, or compiled out entirely.
//
// Compile-time kill switch: configuring with `-DOWNSIM_OBS=OFF` defines
// `OWNSIM_OBS_ENABLED=0` and swaps every type below for an empty no-op
// mirror with the same API. Call sites don't change; the optimizer erases
// them.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#ifndef OWNSIM_OBS_ENABLED
#define OWNSIM_OBS_ENABLED 1
#endif

namespace ownsim::obs {

#if OWNSIM_OBS_ENABLED

/// Monotonic event count. Default-constructed handles are unbound and
/// silently drop updates (components built without a registry stay valid).
class Counter {
 public:
  Counter() = default;

  void inc() {
    if (slot_ != nullptr) ++*slot_;
  }
  void add(std::int64_t n) {
    if (slot_ != nullptr) *slot_ += n;
  }
  std::int64_t value() const { return slot_ != nullptr ? *slot_ : 0; }
  bool bound() const { return slot_ != nullptr; }

 private:
  friend class Registry;
  explicit Counter(std::int64_t* slot) : slot_(slot) {}
  std::int64_t* slot_ = nullptr;
};

/// Level/highwater observation: `observe` keeps the maximum seen, `set`
/// overwrites (for sampled levels).
class Gauge {
 public:
  Gauge() = default;

  void observe_max(std::int64_t v) {
    if (slot_ != nullptr && v > *slot_) *slot_ = v;
  }
  void set(std::int64_t v) {
    if (slot_ != nullptr) *slot_ = v;
  }
  std::int64_t value() const { return slot_ != nullptr ? *slot_ : 0; }
  bool bound() const { return slot_ != nullptr; }

 private:
  friend class Registry;
  explicit Gauge(std::int64_t* slot) : slot_(slot) {}
  std::int64_t* slot_ = nullptr;
};

/// Named slot store. Registration is idempotent: asking twice for the same
/// name returns handles onto the same slot (useful when two code paths
/// account into one logical counter).
class Registry {
 public:
  Counter counter(const std::string& name) { return Counter(slot(name)); }
  Gauge gauge(const std::string& name) { return Gauge(slot(name)); }

  /// Value by name; 0 for unregistered names.
  std::int64_t value(std::string_view name) const;
  bool contains(std::string_view name) const;
  std::size_t size() const { return slots_.size(); }

  /// Visits (name, value) in lexicographic name order.
  void for_each(
      const std::function<void(const std::string&, std::int64_t)>& fn) const;

  /// Flat JSON object {"name": value, ...}, names sorted.
  void write_json(std::ostream& os) const;

 private:
  std::int64_t* slot(const std::string& name);

  // std::map: stable addresses for the mapped values (handles point at
  // them) and sorted iteration for free.
  std::map<std::string, std::int64_t, std::less<>> slots_;
};

#else  // !OWNSIM_OBS_ENABLED — same API, no state, no code.

class Counter {
 public:
  void inc() {}
  void add(std::int64_t) {}
  std::int64_t value() const { return 0; }
  bool bound() const { return false; }
};

class Gauge {
 public:
  void observe_max(std::int64_t) {}
  void set(std::int64_t) {}
  std::int64_t value() const { return 0; }
  bool bound() const { return false; }
};

class Registry {
 public:
  Counter counter(const std::string&) { return Counter(); }
  Gauge gauge(const std::string&) { return Gauge(); }
  std::int64_t value(std::string_view) const { return 0; }
  bool contains(std::string_view) const { return false; }
  std::size_t size() const { return 0; }
  void for_each(
      const std::function<void(const std::string&, std::int64_t)>&) const {}
  void write_json(std::ostream& os) const;
};

#endif  // OWNSIM_OBS_ENABLED

}  // namespace ownsim::obs
