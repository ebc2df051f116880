// Reproduces paper Fig. 5: space-time plots of the NaS model in four
// settings — (a) rho=0.0625 p=0.3 (laminar), (b) rho=0.5 p=0.3 (jammed),
// (c) rho=0.1 p=0 (deterministic platoons), (d) rho=0.5 p=0
// (deterministic jam waves). 100 steps each, as in the paper.
//
// Expected shape: backward-travelling jam waves at high density, clean
// laminar stripes at low density.
//
// --jobs N fans the four panels across N ensemble workers; each panel
// renders into its own buffer and writes its own CSV, so stdout and the
// CSVs are byte-identical for every N.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/space_time.h"
#include "runner/ensemble.h"

namespace {

using namespace cavenet;
using namespace cavenet::ca;

struct Panel {
  const char* label;
  double rho;
  double p;
  std::int64_t lane_cells;
  const char* csv_path;
};

std::string render_panel(const Panel& panel) {
  NasParams params;
  params.lane_length = panel.lane_cells;
  params.slowdown_p = panel.p;
  const auto n = static_cast<std::int64_t>(
      panel.rho * static_cast<double>(panel.lane_cells));
  NasLane lane(params, n, InitialPlacement::kRandom, Rng(5));
  const SpaceTimeRaster raster = record_space_time(lane, 100);

  double jammed = 0.0;
  for (std::int64_t row = 0; row < raster.rows(); ++row) {
    jammed += raster.jammed_fraction(row);
  }
  jammed /= static_cast<double>(raster.rows());

  std::ostringstream out;
  char header[160];
  std::snprintf(header, sizeof(header),
                "--- Fig. 5-%s: rho=%.4f, p=%.1f, L=%lld ---\n"
                "mean jammed fraction over 100 steps: %.3f\n",
                panel.label, panel.rho, panel.p,
                static_cast<long long>(panel.lane_cells), jammed);
  out << header;
  raster.render_ascii(out, 110);
  std::ofstream csv(panel.csv_path);
  raster.write_csv(csv);
  out << "(full raster in " << panel.csv_path << ")\n\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "Fig. 5: space-time plots (time downwards, '.' empty, digit = "
               "velocity)\n\n";
  const Panel panels[] = {
      {"a", 0.0625, 0.3, 800, "fig5a_space_time.csv"},
      {"b", 0.5, 0.3, 400, "fig5b_space_time.csv"},
      {"c", 0.1, 0.0, 400, "fig5c_space_time.csv"},
      {"d", 0.5, 0.0, 400, "fig5d_space_time.csv"},
  };

  const int jobs = runner::parse_jobs_flag(argc, argv);
  const auto rendered = runner::map<std::string>(
      std::size(panels), jobs,
      [&panels](runner::ReplicationContext& ctx) {
        return render_panel(panels[ctx.index]);
      });
  for (const std::string& text : rendered) std::cout << text;
  return 0;
}
