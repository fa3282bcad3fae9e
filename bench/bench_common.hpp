#pragma once

/// \file bench_common.hpp
/// Shared plumbing for the figure-reproduction harnesses: configuration,
/// repeated-run aggregation (the paper averages three runs per
/// configuration and discards warm-up effects; we report the median,
/// which a single stalled phase cannot drag), and table printing.

#include <coal/apps/parquet_app.hpp>
#include <coal/apps/toy_app.hpp>
#include <coal/common/config.hpp>
#include <coal/common/stats.hpp>
#include <coal/runtime/runtime.hpp>

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace coal::bench {

/// Standard bench command line: `key=value` overrides.
inline config parse_cli(int argc, char** argv)
{
    config cfg;
    cfg.load_environment();
    cfg.parse_args(argc, argv);
    return cfg;
}

inline void print_header(std::string const& title, std::string const& paper)
{
    std::printf("## %s\n", title.c_str());
    std::printf("reproduces: %s\n\n", paper.c_str());
}

/// Optional machine-readable output: pass `csv=path` on the command line
/// and every figure bench mirrors its data rows into that file
/// (plot-ready, one header line).
class csv_sink
{
public:
    csv_sink(config const& cfg, char const* header)
    {
        if (auto path = cfg.get("csv"))
        {
            file_ = std::fopen(path->c_str(), "w");
            if (file_ != nullptr)
                std::fprintf(file_, "%s\n", header);
            else
                std::fprintf(stderr, "cannot open csv file '%s'\n",
                    path->c_str());
        }
    }

    ~csv_sink()
    {
        if (file_ != nullptr)
            std::fclose(file_);
    }

    csv_sink(csv_sink const&) = delete;
    csv_sink& operator=(csv_sink const&) = delete;

#if defined(__GNUC__)
    __attribute__((format(printf, 2, 3)))
#endif
    void row(char const* fmt, ...)
    {
        if (file_ == nullptr)
            return;
        std::va_list args;
        va_start(args, fmt);
        std::vfprintf(file_, fmt, args);
        va_end(args);
        std::fputc('\n', file_);
    }

private:
    std::FILE* file_ = nullptr;
};

/// One toy-app configuration measured over `repeats` fresh runtimes;
/// the first phase of each run is treated as warm-up and discarded
/// (allocator/page-cache effects dominate it on a cold process).  Every
/// figure is the median over the kept phases: one phase that stalls on
/// a host hiccup must not move the row.
struct toy_measurement
{
    double median_phase_s = 0.0;
    double median_overhead = 0.0;
    double median_messages = 0.0;
};

inline toy_measurement measure_toy(apps::toy_params params,
    unsigned repeats, unsigned workers = 1)
{
    std::vector<double> phase_times, overheads, messages;

    params.phases += 1;    // warm-up phase, dropped below

    for (unsigned r = 0; r != repeats; ++r)
    {
        runtime_config cfg;
        cfg.num_localities = 2;
        cfg.workers_per_locality = workers;
        cfg.apply_coalescing_defaults = false;
        runtime rt(cfg);

        auto const result = apps::run_toy_app(rt, params);
        for (std::size_t i = 1; i < result.phases.size(); ++i)
        {
            auto const& phase = result.phases[i];
            phase_times.push_back(phase.metrics.duration_s);
            overheads.push_back(phase.metrics.network_overhead);
            messages.push_back(static_cast<double>(phase.metrics.messages_sent));
        }
        rt.stop();
    }

    return {median_of(std::move(phase_times)), median_of(std::move(overheads)),
        median_of(std::move(messages))};
}

/// One parquet configuration measured over `repeats` fresh runtimes;
/// the first iteration of each run is warm-up and discarded, and the
/// figures are medians over the kept iterations.  A checksum failure
/// means a parcel was lost or applied twice: the numbers would time a
/// wrong computation, so the bench exits non-zero instead.
struct parquet_measurement
{
    double median_iteration_s = 0.0;
    double median_overhead = 0.0;
    std::vector<double> per_iteration_cumulative_s;    // last run's curve
};

inline parquet_measurement measure_parquet(apps::parquet_params params,
    std::uint32_t localities, unsigned repeats, unsigned workers = 1,
    std::uint32_t nodes = 1, bool hierarchical = false)
{
    parquet_measurement out;
    std::vector<double> iteration_times, overheads;

    params.iterations += 1;    // warm-up iteration, dropped below

    for (unsigned r = 0; r != repeats; ++r)
    {
        runtime_config cfg;
        cfg.num_localities = localities;
        cfg.workers_per_locality = workers;
        cfg.apply_coalescing_defaults = false;
        cfg.num_nodes = nodes;
        cfg.hierarchical_routing = hierarchical;
        runtime rt(cfg);

        auto const result = apps::run_parquet_app(rt, params);
        if (!result.checksum_ok)
        {
            std::fprintf(stderr, "ERROR: parquet checksum failed (error %.2e)\n",
                result.checksum_error);
            rt.stop();
            std::exit(EXIT_FAILURE);
        }

        out.per_iteration_cumulative_s.clear();
        double cumulative = 0.0;
        for (std::size_t i = 1; i < result.iterations.size(); ++i)
        {
            auto const& iter = result.iterations[i];
            iteration_times.push_back(iter.metrics.duration_s);
            overheads.push_back(iter.metrics.network_overhead);
            cumulative += iter.metrics.duration_s;
            out.per_iteration_cumulative_s.push_back(cumulative);
        }
        rt.stop();
    }

    out.median_iteration_s = median_of(std::move(iteration_times));
    out.median_overhead = median_of(std::move(overheads));
    return out;
}

}    // namespace coal::bench
