#include "analysis/guard_audit.h"

#include <optional>
#include <string_view>

namespace crp::analysis {

const char* guard_kind_name(GuardKind k) {
  switch (k) {
    case GuardKind::kDerefGuard: return "deref-guard";
    case GuardKind::kGratuitous: return "gratuitous";
    case GuardKind::kNarrow: return "narrow";
  }
  return "?";
}

std::map<std::string, std::pair<size_t, size_t>> GuardAuditSummary::per_module() const {
  std::map<std::string, std::pair<size_t, size_t>> out;
  for (const auto& e : entries) {
    auto& [derefs, grat] = out[e.site.module];
    if (e.kind == GuardKind::kDerefGuard) ++derefs;
    if (e.kind == GuardKind::kGratuitous) ++grat;
  }
  return out;
}

GuardAuditSummary audit_guards(const SehExtractor& ex,
                               const std::vector<FilterInfo>& filters) {
  GuardAuditSummary out;

  FilterIndex index(filters);

  std::map<std::string_view, const isa::Image*> images;  // first of a name wins
  for (const auto& img : ex.images()) images.emplace(img->name, img.get());

  // Handlers sit in image order: building a module's CFG when its first
  // handler comes up keeps one CFG alive at a time, not one per image.
  const isa::Image* cfg_image = nullptr;
  std::optional<cfg::Cfg> cfg;
  for (const auto& h : ex.handlers()) {
    auto it = images.find(h.module);
    const isa::Image* image = it != images.end() ? it->second : nullptr;
    if (image != cfg_image) {
      cfg_image = image;
      cfg.reset();
      if (image != nullptr) cfg = cfg::Cfg::build_all(*image);
    }
    GuardAuditEntry entry;
    entry.site = h;
    if (cfg.has_value()) {
      auto instrs = cfg->instructions_in(h.scope.begin, h.scope.end);
      entry.region_instrs = instrs.size();
      for (const auto& [off, ins] : instrs) {
        if (ins.op == isa::Op::kLoad) ++entry.region_loads;
        if (ins.op == isa::Op::kStore) ++entry.region_stores;
      }
    }
    if (!index.accepts(h)) {
      entry.kind = GuardKind::kNarrow;
      ++out.narrow;
    } else if (entry.region_loads + entry.region_stores > 0) {
      entry.kind = GuardKind::kDerefGuard;
      ++out.deref_guards;
    } else {
      entry.kind = GuardKind::kGratuitous;
      ++out.gratuitous;
    }
    out.entries.push_back(std::move(entry));
  }
  return out;
}

}  // namespace crp::analysis
