// Reproduces paper Fig. 7: periodograms of v(t) for (a) the deterministic
// model (rho = 0.1, p = 0) and (b) the stochastic model (rho = 0.05,
// p = 0.5).
//
// Expected shape: the deterministic spectrum stays bounded (flat) at
// f -> 0 (SRD); the stochastic spectrum rises toward the origin (the
// paper's 1/f-like LRD divergence). We quantify "diverges" as the
// log-log slope over the lowest 0.5% of frequencies; a third row at the
// near-critical density rho = 0.09 shows the divergence at its strongest.
//
// --jobs N fans the three 65536-step cases across N ensemble workers;
// the CSV and stdout are byte-identical for every N.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "analysis/autocorrelation.h"
#include "analysis/spectrum.h"
#include "core/velocity_series.h"
#include "runner/ensemble.h"
#include "util/table_writer.h"

int main(int argc, char** argv) {
  using namespace cavenet;
  using namespace cavenet::ca;

  constexpr std::int64_t kSteps = 65536;
  constexpr double kSlopeFraction = 0.005;
  constexpr double kLrdThreshold = -0.15;
  std::cout << "Fig. 7: periodogram of v(t), " << kSteps << " samples\n\n";

  NasParams params;
  params.lane_length = 400;

  struct Case {
    const char* label;
    double rho;
    double p;
  };
  const Case cases[] = {
      {"(a) rho=0.1,  p=0   (paper)", 0.1, 0.0},
      {"(b) rho=0.05, p=0.5 (paper)", 0.05, 0.5},
      {"(+) rho=0.09, p=0.5 (near-critical)", 0.09, 0.5},
  };

  struct CaseResult {
    analysis::Spectrum spectrum;
    double slope = 0.0;
    double hurst = 0.0;
  };
  const int jobs = runner::parse_jobs_flag(argc, argv);
  const auto results = runner::map<CaseResult>(
      std::size(cases), jobs,
      [&cases, params](runner::ReplicationContext& ctx) {
        // Seed 7 for every case, exactly as the serial version ran.
        NasParams case_params = params;
        case_params.slowdown_p = cases[ctx.index].p;
        const auto series =
            velocity_series(case_params, cases[ctx.index].rho, kSteps, 7);
        CaseResult r;
        r.spectrum = analysis::periodogram(series);
        r.slope = analysis::low_frequency_slope(r.spectrum, kSlopeFraction);
        r.hurst = analysis::hurst_rs(series);
        return r;
      });

  TableWriter table({"case", "low-f slope", "Hurst (R/S)", "diagnosis"});
  TableWriter csv({"case", "frequency", "power"});
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const CaseResult& r = results[i];
    table.add_row({std::string(cases[i].label), r.slope, r.hurst,
                   std::string(r.slope < kLrdThreshold
                                   ? "LRD (diverges at origin)"
                                   : "SRD (bounded at origin)")});
    for (std::size_t k = 0; k < r.spectrum.frequency.size(); k += 16) {
      csv.add_row({std::string(cases[i].label), r.spectrum.frequency[k],
                   r.spectrum.power[k]});
    }
  }
  table.print(std::cout);
  csv.write_csv_file("fig7_periodograms.csv");

  std::cout << "\nlow-frequency power (stochastic paper case), log10 axes:\n";
  // Case (b) above is exactly this spectrum; reuse it.
  const auto& spec = results[1].spectrum;
  TableWriter decades({"log10(f)", "log10 P"});
  for (std::size_t k = 1; k < spec.frequency.size(); k *= 4) {
    if (spec.power[k] > 0.0) {
      decades.add_row({std::log10(spec.frequency[k]),
                       std::log10(spec.power[k])});
    }
  }
  decades.print(std::cout);
  std::cout << "\n(decimated spectra in fig7_periodograms.csv)\n";
  return 0;
}
