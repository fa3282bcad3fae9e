#pragma once

/// \file registry.hpp
/// Counter-type registry and query front end.
///
/// Subsystems register counter *types* (a path template plus a factory);
/// users query *full names*.  Instances are created lazily on first query
/// and cached, so repeated sampling of the same counter (say
/// `/threads/background-overhead` once per phase) is cheap.

#include <coal/perf/counter.hpp>
#include <coal/perf/counter_path.hpp>

#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace coal::perf {

/// Creates a counter instance for a parsed path, or nullptr when the
/// instance/parameters cannot be resolved (unknown action, bad locality).
using counter_factory = std::function<counter_ptr(counter_path const&)>;

class counter_registry
{
public:
    /// Register a counter type under `/object/name`.
    /// \throws std::invalid_argument on duplicate registration.
    void register_counter_type(std::string type_path, std::string description,
        counter_factory factory);

    /// Instantiate (or fetch the cached instance of) a full counter name.
    /// Returns nullptr for unknown types or unresolvable instances.
    counter_ptr get(std::string const& full_name);

    /// One-shot query; invalid counter_value for unresolvable names.
    counter_value query(std::string const& full_name, bool reset = false);

    /// All registered counter types with their descriptions, sorted.
    [[nodiscard]] std::vector<std::pair<std::string, std::string>>
    discover() const;

    /// Reset every instantiated counter (per-phase measurement prologue).
    void reset_all();

    /// Drop cached instances (used on shutdown so factories' captured
    /// subsystem references cannot dangle).
    void clear_instances();

private:
    struct type_entry
    {
        std::string description;
        counter_factory factory;
    };

    mutable std::mutex mutex_;
    std::map<std::string, type_entry> types_;
    std::map<std::string, counter_ptr> instances_;
};

/// Convenience for per-phase deltas of monotonically increasing scalar
/// counters: `delta()` returns the change since the previous call.
class delta_sampler
{
public:
    delta_sampler(counter_registry& registry, std::string full_name);

    /// Current cumulative value minus the value at the last call (or at
    /// construction for the first call).
    double delta();

    /// Read without advancing the baseline.
    double peek();

private:
    counter_registry* registry_;
    std::string name_;
    double last_ = 0.0;
};

}    // namespace coal::perf
