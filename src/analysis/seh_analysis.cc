#include "analysis/seh_analysis.h"

#include <algorithm>

#include "cfg/cfg.h"
#include "exec/thread_pool.h"
#include "obs/obs.h"
#include "symex/filter_exec.h"
#include "symex/solver.h"
#include "util/log.h"

namespace crp::analysis {

const char* filter_verdict_name(FilterVerdict v) {
  switch (v) {
    case FilterVerdict::kAcceptsAv: return "accepts-av";
    case FilterVerdict::kRejectsAv: return "rejects-av";
    case FilterVerdict::kNeedsManual: return "needs-manual";
  }
  return "?";
}

bool SehExtractor::add_image_bytes(std::span<const u8> bytes) {
  std::optional<isa::Image> img = isa::read_image(bytes);
  if (!img.has_value()) return false;
  add_image(std::make_shared<isa::Image>(std::move(*img)));
  return true;
}

bool SehExtractor::add_images_bytes(const std::vector<std::vector<u8>>& blobs, int jobs) {
  auto parsed = exec::parallel_map(
      jobs, blobs,
      [](size_t, const std::vector<u8>& b) { return isa::read_image(b); }, "parse-image");
  bool ok = true;
  for (auto& img : parsed) {
    if (!img.has_value()) {
      ok = false;
      continue;
    }
    add_image(std::make_shared<isa::Image>(std::move(*img)));
  }
  return ok;
}

void SehExtractor::add_image(std::shared_ptr<const isa::Image> image) {
  for (const auto& sc : image->scopes) {
    HandlerSite site;
    site.module = image->name;
    site.machine = image->machine;
    site.scope = sc;
    site.catch_all = sc.filter == isa::kFilterCatchAll;
    handlers_.push_back(site);
  }
  images_.push_back(std::move(image));
}

std::vector<std::pair<std::string, u64>> SehExtractor::unique_filters() const {
  std::set<std::pair<std::string, u64>> set;
  for (const auto& h : handlers_)
    if (!h.catch_all) set.emplace(h.module, h.scope.filter);
  return {set.begin(), set.end()};
}

std::vector<const HandlerSite*> SehExtractor::handlers_in(const std::string& module) const {
  std::vector<const HandlerSite*> out;
  for (const auto& h : handlers_)
    if (h.module == module) out.push_back(&h);
  return out;
}

namespace {

constexpr u64 kFnvBasis = 1469598103934665603ull;
constexpr u64 kFnvPrime = 1099511628211ull;

void mix(u64& h, u64 v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ (v & 0xff)) * kFnvPrime;
    v >>= 8;
  }
}

void mix_str(u64& h, const std::string& s) {
  mix(h, s.size());
  for (char c : s) h = (h ^ static_cast<u8>(c)) * kFnvPrime;
}

/// Static byte of `image` at the FilterExecutor build-time layout, rebased
/// so the code section starts at 0: code bytes first, then the remaining
/// sections page-aligned in declaration order (mirrors
/// FilterExecutor::static_byte — must stay in sync with it).
std::optional<u8> layout_byte(const isa::Image& img, u64 off) {
  int cs = img.code_section();
  if (cs < 0) return std::nullopt;
  const auto& code = img.sections[static_cast<size_t>(cs)];
  if (off < code.bytes.size()) return code.bytes[off];
  u64 code_size = std::max<u64>(code.vsize, code.bytes.size());
  u64 cursor = align_up(std::max<u64>(code_size, 1), 4096);
  for (size_t i = 0; i < img.sections.size(); ++i) {
    if (static_cast<int>(i) == cs) continue;
    const auto& sec = img.sections[i];
    u64 vsize = std::max<u64>(sec.vsize, sec.bytes.size());
    if (off >= cursor && off < cursor + vsize) {
      u64 o = off - cursor;
      return o < sec.bytes.size() ? sec.bytes[o] : u8{0};
    }
    cursor += align_up(std::max<u64>(vsize, 1), 4096);
  }
  return std::nullopt;
}

}  // namespace

u64 filter_body_hash(const isa::Image& image, u64 filter_off) {
  cfg::Cfg g = cfg::Cfg::build(image, {filter_off});
  u64 h = kFnvBasis;
  for (const auto& [begin, bb] : g.blocks()) {
    mix(h, begin - filter_off);  // block anchor, relative = position-independent
    for (const auto& [off, ins] : g.instructions_in(bb.begin, bb.end)) {
      mix(h, static_cast<u64>(ins.op) | (static_cast<u64>(ins.ra) << 8) |
                 (static_cast<u64>(ins.rb) << 16) | (static_cast<u64>(ins.w) << 24));
      switch (ins.op) {
        case isa::Op::kLeaPc: {
          // The displacement is module-specific (distance to this copy's
          // data); what determines behavior is the referenced static
          // content. Hash a 32-byte window at the target instead.
          u64 target = off + isa::kInstrBytes + static_cast<u64>(ins.imm);
          for (u64 i = 0; i < 32; ++i) {
            auto b = layout_byte(image, target + i);
            mix(h, b.has_value() ? 0x100u | *b : 0u);
          }
          break;
        }
        case isa::Op::kCallImp: {
          // Import *index* differs per module; the imported name is what a
          // duplicate body shares. (The executor havocs the result either
          // way, but keep the key conservative.)
          auto idx = static_cast<size_t>(ins.imm);
          if (idx < image.imports.size()) {
            mix_str(h, image.imports[idx].module);
            mix_str(h, image.imports[idx].symbol);
          } else {
            mix(h, 0xbad1);
          }
          break;
        }
        default:
          mix(h, static_cast<u64>(ins.imm));
      }
    }
  }
  return h;
}

FilterClassifier::Outcome FilterClassifier::classify_detail(const isa::Image& image,
                                                            u64 filter_off) const {
  Outcome out;
  symex::Ctx ctx;
  symex::FilterExecutor fx(ctx, image);
  symex::FilterAnalysis fa = fx.explore(filter_off, opts_.max_paths, opts_.max_steps);
  out.paths = fa.paths.size();

  bool any_unknown = fa.truncated;
  for (const auto& path : fa.paths) {
    // Query: path ∧ exc_code = AV ∧ disposition handles it.
    symex::Solver s(ctx);
    s.add(path.cond);
    s.add(ctx.eq(fx.exc_code(),
                 ctx.constant(static_cast<u64>(vm::ExcCode::kAccessViolation))));
    symex::ExprRef handles =
        ctx.eq(path.ret, ctx.constant(symex::kDispExecuteHandler));
    if (opts_.continue_execution_counts)
      handles = ctx.lor(handles,
                        ctx.eq(path.ret, ctx.constant(symex::kDispContinueExecution)));
    s.add(handles);
    ++out.queries;
    symex::SatResult r = s.check(opts_.solver_conflicts);
    if (r == symex::SatResult::kSat) {
      // A path that only accepts because of an unconstrained external call
      // is not a clean verdict (the paper's manual-verification bucket).
      if (path.external_call) {
        any_unknown = true;
        continue;
      }
      out.verdict = FilterVerdict::kAcceptsAv;
      return out;
    }
    if (r == symex::SatResult::kUnknown) any_unknown = true;
  }
  out.verdict = any_unknown ? FilterVerdict::kNeedsManual : FilterVerdict::kRejectsAv;
  return out;
}

FilterVerdict FilterClassifier::classify(const isa::Image& image, u64 filter_off,
                                         size_t* paths_out) {
  Outcome o = classify_detail(image, filter_off);
  ++executed_;
  queries_ += o.queries;
  if (paths_out != nullptr) *paths_out = o.paths;
  return o.verdict;
}

std::vector<FilterInfo> FilterClassifier::classify_all(const SehExtractor& ex, int jobs) {
  struct Item {
    std::string module;
    u64 off = 0;
    const isa::Image* img = nullptr;
  };
  // Name -> image, last image with the name winning (as the previous
  // linear rescans did).
  std::map<std::string, const isa::Image*> by_name;
  for (const auto& im : ex.images()) by_name[im->name] = im.get();

  std::vector<Item> items;
  for (const auto& [module, off] : ex.unique_filters()) {
    auto it = by_name.find(module);
    if (it == by_name.end()) continue;
    items.push_back({module, off, it->second});
  }

  // Pass 1: content hashes (pure function of the image).
  std::vector<u64> hashes = exec::parallel_map(
      jobs, items,
      [](size_t, const Item& it) { return filter_body_hash(*it.img, it.off); },
      "filter-hash");

  // Dedup against the memo cache: the first occurrence (in input order) of
  // each unknown hash becomes the representative that actually executes, so
  // the executed/query counters are identical for any job count.
  std::vector<size_t> run_idx;
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    std::set<u64> scheduled;
    for (size_t i = 0; i < items.size(); ++i) {
      if (memo_.contains(hashes[i])) continue;
      if (scheduled.insert(hashes[i]).second) run_idx.push_back(i);
    }
  }

  // Pass 2: symbolically execute one representative per unique body, each
  // task with its own symex::Ctx/Solver.
  std::vector<Outcome> outcomes = exec::parallel_map(
      jobs, run_idx,
      [&](size_t, const size_t& idx) {
        return classify_detail(*items[idx].img, items[idx].off);
      },
      "classify-filter");

  std::vector<FilterInfo> out;
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    for (size_t k = 0; k < run_idx.size(); ++k)
      memo_.emplace(hashes[run_idx[k]], outcomes[k]);
    executed_ += run_idx.size();
    for (const auto& o : outcomes) queries_ += o.queries;
    u64 hits = items.size() - run_idx.size();
    memo_hits_ += hits;
    obs::Registry::global().counter("analysis.classify.memo_hits").inc(hits);

    // Per-filter handler counts, built once instead of rescanning all
    // handlers per filter.
    std::map<std::pair<std::string, u64>, size_t> handler_counts;
    for (const auto& h : ex.handlers())
      if (!h.catch_all) ++handler_counts[{h.module, h.scope.filter}];

    for (size_t i = 0; i < items.size(); ++i) {
      const Outcome& o = memo_.at(hashes[i]);
      FilterInfo info;
      info.module = items[i].module;
      info.offset = items[i].off;
      info.machine = items[i].img->machine;
      info.verdict = o.verdict;
      info.paths_explored = o.paths;
      auto hc = handler_counts.find({info.module, info.offset});
      if (hc != handler_counts.end()) info.handlers_using = hc->second;
      out.push_back(info);
    }
  }

  // Catch-all "filters" are structurally accepting; represent them with one
  // synthetic row per module that uses them (offset = kFilterCatchAll).
  std::map<std::string, size_t> catch_all_users;
  for (const auto& h : ex.handlers())
    if (h.catch_all) ++catch_all_users[h.module];
  for (const auto& [module, n] : catch_all_users) {
    auto it = by_name.find(module);
    FilterInfo info;
    info.module = module;
    info.offset = isa::kFilterCatchAll;
    info.machine = it != by_name.end() ? it->second->machine : isa::Machine::kX64;
    info.verdict = FilterVerdict::kAcceptsAv;
    info.handlers_using = n;
    out.push_back(info);
  }
  return out;
}

FilterIndex::FilterIndex(const std::vector<FilterInfo>& filters) {
  for (const auto& f : filters)
    verdicts_.emplace(std::pair{std::string_view(f.module), f.offset}, f.verdict);
}

bool FilterIndex::accepts(const HandlerSite& h) const {
  if (h.catch_all) return true;
  auto it = verdicts_.find({h.module, h.scope.filter});
  return it != verdicts_.end() && it->second == FilterVerdict::kAcceptsAv;
}

std::vector<ModuleSehStats> CoverageXref::compute(const SehExtractor& ex,
                                                  const std::vector<FilterInfo>& filters,
                                                  const trace::Tracer* tracer,
                                                  const os::Process* proc) {
  std::map<std::string, ModuleSehStats> stats;
  for (const auto& img : ex.images()) {
    ModuleSehStats& s = stats[img->name];
    s.module = img->name;
    s.machine = img->machine;
  }

  FilterIndex index(filters);
  for (const auto& h : ex.handlers()) {
    ModuleSehStats& s = stats[h.module];
    ++s.guarded_total;
    if (!index.accepts(h)) continue;
    ++s.guarded_av_capable;
    if (tracer != nullptr && proc != nullptr) {
      const vm::LoadedModule* mod = proc->machine().module_named(h.module);
      if (mod != nullptr) {
        gva_t begin = mod->code_addr(h.scope.begin);
        gva_t end = mod->code_addr(h.scope.end);
        if (tracer->executed_in_range(begin, end)) {
          ++s.guarded_on_path;
          s.trigger_events += tracer->hits_in_range(begin, end);
        }
      }
    }
  }

  for (const auto& f : filters) {
    if (f.offset == isa::kFilterCatchAll) continue;  // Table III counts functions
    ModuleSehStats& s = stats[f.module];
    ++s.filters_total;
    if (f.verdict == FilterVerdict::kAcceptsAv) ++s.filters_av_capable;
  }

  std::vector<ModuleSehStats> out;
  for (auto& [_, s] : stats) out.push_back(std::move(s));
  return out;
}

std::vector<Candidate> CoverageXref::candidates(const SehExtractor& ex,
                                                const std::vector<FilterInfo>& filters,
                                                const trace::Tracer* tracer,
                                                const os::Process* proc,
                                                const std::string& target_name) {
  std::vector<Candidate> out;
  FilterIndex index(filters);
  for (const auto& h : ex.handlers()) {
    if (!index.accepts(h)) continue;
    bool on_path = false;
    if (tracer != nullptr && proc != nullptr) {
      const vm::LoadedModule* mod = proc->machine().module_named(h.module);
      if (mod != nullptr)
        on_path = tracer->executed_in_range(mod->code_addr(h.scope.begin),
                                            mod->code_addr(h.scope.end));
    }
    if (!on_path) continue;
    Candidate c;
    c.cls = PrimitiveClass::kExceptionHandler;
    c.target = target_name;
    c.module = h.module;
    c.scope_begin = h.scope.begin;
    c.scope_end = h.scope.end;
    c.filter_off = h.scope.filter;
    c.catch_all = h.catch_all;
    out.push_back(c);
  }
  return out;
}

}  // namespace crp::analysis
