#include "plan/plan.h"

#include <sstream>

namespace crp::plan {

const char* surface_name(Surface s) {
  switch (s) {
    case Surface::kNone: return "none";
    case Surface::kNginxRecv: return "nginx-recv";
    case Surface::kBrowserSeh: return "ie-mutx-seh";
    case Surface::kBrowserPoll: return "firefox-poll";
    case Surface::kJvmNpe: return "jvm-npe";
  }
  return "?";
}

namespace {

u64 fnv1a(const char* data, size_t n) {
  u64 h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<u8>(data[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr const char* kSumTag = "sum ";

}  // namespace

std::string encode_plan(const ExploitPlan& p) {
  std::ostringstream out;
  out << strf("crp-plan v%d\n", p.version);
  put_str(out, "target", p.target_id);
  out << "surface " << static_cast<u32>(p.surface) << " symex "
      << (p.symex_confirmed ? 1 : 0) << "\n";
  put_str(out, "primitive", p.primitive);
  out << "region_pages " << p.region_pages << "\n";
  out << "scan " << static_cast<u32>(p.scan.mode) << " " << p.scan.window_pages
      << " " << p.scan.stride_pages << " " << p.scan.max_probes << " "
      << p.scan.seed << " " << (p.scan.locate_base ? 1 : 0) << "\n";
  out << "leak " << p.leak.offsets.size();
  for (u64 off : p.leak.offsets) out << " " << off;
  out << "\n";
  out << "hijack " << p.hijack.offset << "\n";
  put_str(out, "rationale", p.rationale);
  std::string body = out.str();
  return body + strf("%s%016llx\n", kSumTag,
                     static_cast<unsigned long long>(fnv1a(body.data(), body.size())));
}

bool decode_plan(const std::string& doc, ExploitPlan* out) {
  // The checksum footer covers every byte before it: a truncated document
  // has no footer, a corrupted one fails the compare.
  size_t tail = doc.rfind(kSumTag);
  if (tail == std::string::npos || (tail != 0 && doc[tail - 1] != '\n'))
    return false;
  // The footer is exactly "sum <16 hex digits>\n" — anything shorter is a
  // truncated document, even if the digits that remain would still parse.
  if (doc.size() - tail != 4 + 16 + 1 || doc.back() != '\n') return false;
  std::string body = doc.substr(0, tail);
  u64 want = 0;
  for (size_t i = tail + 4; i < doc.size() - 1; ++i) {
    char c = doc[i];
    u64 d = 0;
    if (c >= '0' && c <= '9') d = static_cast<u64>(c - '0');
    else if (c >= 'a' && c <= 'f') d = static_cast<u64>(c - 'a' + 10);
    else return false;
    want = (want << 4) | d;
  }
  if (fnv1a(body.data(), body.size()) != want) return false;

  std::istringstream in(body);
  std::string magic, version;
  if (!(in >> magic >> version) || magic != "crp-plan" ||
      version != strf("v%d", kPlanVersion))
    return false;

  ExploitPlan p;
  p.version = kPlanVersion;
  std::string tag;
  if (!get_str(in, "target", &p.target_id)) return false;
  u32 surface = 0;
  int symex = 0;
  if (!(in >> tag >> surface) || tag != "surface") return false;
  if (surface > static_cast<u32>(Surface::kJvmNpe)) return false;
  p.surface = static_cast<Surface>(surface);
  if (!(in >> tag >> symex) || tag != "symex") return false;
  p.symex_confirmed = symex != 0;
  if (!get_str(in, "primitive", &p.primitive)) return false;
  if (!(in >> tag >> p.region_pages) || tag != "region_pages") return false;
  u32 mode = 0;
  int locate = 0;
  if (!(in >> tag >> mode >> p.scan.window_pages >> p.scan.stride_pages >>
        p.scan.max_probes >> p.scan.seed >> locate) ||
      tag != "scan" || mode > static_cast<u32>(ScanMode::kHunt))
    return false;
  p.scan.mode = static_cast<ScanMode>(mode);
  p.scan.locate_base = locate != 0;
  size_t n = 0;
  if (!(in >> tag >> n) || tag != "leak") return false;
  for (size_t i = 0; i < n; ++i) {
    u64 off = 0;
    if (!(in >> off)) return false;
    p.leak.offsets.push_back(off);
  }
  if (!(in >> tag >> p.hijack.offset) || tag != "hijack") return false;
  if (!get_str(in, "rationale", &p.rationale)) return false;
  *out = std::move(p);
  return true;
}

}  // namespace crp::plan
