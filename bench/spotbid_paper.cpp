// The paper's evaluation in one executable: `spotbid_paper <figure>` runs
// one reproduction (Fig. 3-7, Tables 3-4, the provider model, the
// ablations, the Section-8 extensions or the portfolio extension), prints
// its result block and then the run's metrics. With no argument or an
// unknown name it lists the figure names on stderr and exits 2.

#include <iostream>
#include <string_view>

#include "bench_common.hpp"

namespace {

struct Figure {
  std::string_view name;
  void (*run)();
};

constexpr Figure kFigures[] = {
    {"fig3_pdf_fit", spotbid::bench::fig3_pdf_fit},
    {"fig4_running_time", spotbid::bench::fig4_running_time},
    {"fig5_onetime_cost", spotbid::bench::fig5_onetime_cost},
    {"fig6_persistent_vs_onetime", spotbid::bench::fig6_persistent_vs_onetime},
    {"table3_optimal_bids", spotbid::bench::table3_optimal_bids},
    {"table4_mapreduce_bids", spotbid::bench::table4_mapreduce_bids},
    {"fig7_mapreduce", spotbid::bench::fig7_mapreduce},
    {"provider_model", spotbid::bench::provider_model},
    {"ablation_sensitivity", spotbid::bench::ablation_sensitivity},
    {"ext_section8", spotbid::bench::ext_section8},
    {"ext_portfolio", spotbid::bench::ext_portfolio},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2) {
    for (const Figure& figure : kFigures) {
      if (figure.name != argv[1]) continue;
      figure.run();
      spotbid::bench::metrics_report(std::string{figure.name});
      return 0;
    }
  }
  std::cerr << "usage: spotbid_paper <figure>\nfigures:\n";
  for (const Figure& figure : kFigures) std::cerr << "  " << figure.name << '\n';
  return 2;
}
