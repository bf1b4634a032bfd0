// §VII countermeasure evaluation: run the IE-style probing attack against
// each proposed defense and report which attacks die.
//
//   1. baseline            — attack succeeds, zero crashes;
//   2. rate detection      — attack "succeeds" but trips the anomaly alarm;
//   3. mapped-only AVs     — the first unmapped probe kills the process.
//
// Build & run:  ./build/examples/defense_eval

#include <cstdio>

#include "analysis/report.h"
#include "defense/rate_detector.h"
#include "oracle/oracle.h"
#include "targets/browser.h"
#include "targets/common.h"

namespace {

struct Outcome {
  bool found = false;
  bool process_alive = true;
  bool alarmed = false;
  crp::u64 probes = 0;
};

Outcome run_attack(bool mapped_only, bool with_detector) {
  using namespace crp;
  os::Kernel kernel;
  targets::BrowserSim browser(kernel, {.kind = targets::BrowserSim::Kind::kIE, .seed = 0xDEF});
  browser.proc().machine().set_mapped_only_av_policy(mapped_only);
  std::unique_ptr<defense::RateDetector> det;
  if (with_detector) det = std::make_unique<defense::RateDetector>(kernel, browser.proc());

  gva_t hidden = targets::plant_hidden_region(browser.proc(), 8 * 4096, 0x5AFE);
  oracle::SehProbeOracle oracle(browser);
  oracle::Scanner scanner(oracle);
  auto hit = scanner.hunt(hidden - 256 * 4096, hidden + 256 * 4096, 2500, 0xCA7);

  Outcome out;
  out.found = hit.has_value() && *hit >= hidden && *hit < hidden + 8 * 4096;
  out.process_alive = kernel.proc(browser.pid()).alive();
  out.alarmed = det != nullptr && det->alarmed();
  out.probes = scanner.stats().probes;
  return out;
}

void report(const char* name, const Outcome& o) {
  printf("%-22s probes=%-5llu found=%-3s alive=%-3s alarmed=%s\n", name,
         static_cast<unsigned long long>(o.probes), o.found ? "yes" : "no",
         o.process_alive ? "yes" : "no", o.alarmed ? "YES" : "no");
}

}  // namespace

int main() {
  printf("Defense evaluation (§VII): IE-style SEH probing attack\n");
  printf("=======================================================\n\n");

  report("baseline", run_attack(false, false));
  report("rate detector", run_attack(false, true));
  report("mapped-only AV policy", run_attack(true, false));

  printf("\nReading:\n");
  printf("  * baseline: crash resistance defeats information hiding outright;\n");
  printf("  * the rate detector cannot stop the attack but flags it loudly —\n");
  printf("    probing rates sit orders of magnitude above benign AV rates;\n");
  printf("  * the mapped-only policy makes the very first unmapped probe fatal,\n");
  printf("    restoring information hiding's original guarantee.\n");

  printf("\n%s", crp::analysis::render_metrics().c_str());
  return 0;
}
