// Self-test of the benchmark's own helpers (report.h): medians and
// quartiles, the tail-percentile choice, and the metric-name and JSON
// emitter. perfbench/run.py runs it before every benchmark run; a failure
// stops the run. Exit code 0 when every check passes.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "report.h"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
    if (!ok) {
        ++g_failures;
        std::printf("FAIL: %s\n", what);
    }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b)); }

template <class F>
bool throws(F&& f) {
    try {
        f();
    } catch (const std::invalid_argument&) {
        return true;
    }
    return false;
}

void test_median() {
    using perfbench::median;
    expect(median({3.0}) == 3.0, "median of one value");
    expect(median({5.0, 1.0, 3.0}) == 3.0, "median of an odd count");
    expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of an even count");
    expect(throws([] { median({}); }), "median of nothing throws");
}

void test_quartiles() {
    using perfbench::quartiles;
    // Reference values from Python: statistics.quantiles(data, n=4).
    std::vector<double> q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    expect(near(q[0], 2.75) && near(q[1], 5.5) && near(q[2], 8.25), "quartiles of 1..10");
    q = quartiles({10, 1, 7, 3});
    expect(near(q[0], 1.5) && near(q[1], 5.0) && near(q[2], 9.25), "quartiles of 4 values");
    q = quartiles({2.0, 4.0});
    expect(near(q[0], 1.5) && near(q[1], 3.0) && near(q[2], 4.5), "quartiles of 2 values");
    q = quartiles({7.0});
    expect(q[0] == 7.0 && q[1] == 7.0 && q[2] == 7.0, "quartiles of 1 value");
    expect(near(perfbench::relative_spread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5 / 5.5),
           "relative spread of 1..10");
    expect(perfbench::relative_spread({0.0, 0.0, 0.0}) == 0.0, "relative spread at median 0");
}

void test_tail_choice() {
    using perfbench::choose_tail;
    expect(choose_tail(1000).percentile == 99 && choose_tail(1000).beyond == 10, "p99 at 1000");
    expect(choose_tail(999).percentile == 95, "p95 just below 1000");
    expect(choose_tail(200).percentile == 95 && choose_tail(200).beyond == 10, "p95 at 200");
    expect(choose_tail(199).percentile == 90, "p90 just below 200");
    expect(choose_tail(100).percentile == 90 && choose_tail(100).beyond == 10, "p90 at 100");
    expect(choose_tail(99).percentile == 50, "median below 100");
    expect(choose_tail(0).percentile == 50, "median of nothing");
}

void test_names_and_units() {
    using perfbench::valid_metric_name;
    using perfbench::valid_unit;
    expect(valid_metric_name("sim_qps"), "plain name");
    expect(valid_metric_name("core.engine_run_s.LifeRaft_1"), "dotted name");
    expect(valid_metric_name("9a-b"), "digit first");
    expect(!valid_metric_name(""), "empty name");
    expect(!valid_metric_name("_x"), "underscore first");
    expect(!valid_metric_name("a b"), "space in name");
    expect(valid_metric_name(std::string(64, 'a')), "64 characters");
    expect(!valid_metric_name(std::string(65, 'a')), "65 characters");
    expect(valid_unit("queries/s") && valid_unit("%") && valid_unit("ms"), "units");
    expect(!valid_unit("") && !valid_unit("a b") && !valid_unit(std::string(17, 's')),
           "bad units");
}

void test_emitter() {
    using perfbench::format_number;
    using perfbench::Metric;
    using perfbench::result_line;
    expect(format_number(1.2034) == "1.2034", "shortest round-trip text");
    expect(std::stod(format_number(0.1 + 0.2)) == 0.1 + 0.2, "all digits kept");
    expect(format_number(3.0) == "3", "integral value");
    expect(throws([] { format_number(std::nan("")); }), "NaN refused");
    expect(throws([] { format_number(INFINITY); }), "infinity refused");

    const std::string line = result_line(true, 1000, 0,
                                         {{"latency_ms", 1.25, "ms"}, {"setup_s", 0.5, "s"}});
    expect(line ==
               "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": "
               "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": "
               "{\"value\": 0.5, \"unit\": \"s\"}}}",
           "result line layout");
    expect(result_line(false, 1, 1, {}) ==
               "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}",
           "empty metrics");
    expect(throws([] { result_line(true, 1, 0, {{"a", 1.0, "s"}, {"a", 2.0, "s"}}); }),
           "repeated name refused");
    expect(throws([] { result_line(true, 1, 0, {{"bad name", 1.0, "s"}}); }),
           "invalid name refused");
    expect(throws([] { result_line(true, 1, 0, {{"a", 1.0, "bad unit"}}); }),
           "invalid unit refused");
}

}  // namespace

int main() {
    test_median();
    test_quartiles();
    test_tail_choice();
    test_names_and_units();
    test_emitter();
    if (g_failures > 0) {
        std::printf("perfbench_selftest: %d check(s) failed\n", g_failures);
        return 1;
    }
    std::printf("perfbench_selftest: all checks passed\n");
    return 0;
}
