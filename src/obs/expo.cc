#include "obs/expo.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>

namespace crp::obs::expo {

namespace {

/// Prometheus metric-name alphabet: [a-zA-Z0-9_:]; everything else folds to
/// '_' (dots in our hierarchical names included).
std::string prom_name(const std::string& prefix, const std::string& name) {
  std::string out = prefix.empty() ? "" : prefix + "_";
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

const char* prom_kind(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "untyped";
}

}  // namespace

std::string prometheus_text(const Snapshot& snap, const std::string& prefix) {
  std::string out;
  for (const auto& [name, v] : snap.values) {
    std::string pn = prom_name(prefix, name);
    out += strf("# TYPE %s %s\n", pn.c_str(), prom_kind(v.kind));
    switch (v.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        out += strf("%s %lld\n", pn.c_str(), static_cast<long long>(v.num));
        break;
      case MetricKind::kHistogram: {
        u64 cum = 0;
        for (const auto& [idx, n] : v.hist.buckets) {
          cum += n;
          // le is inclusive; our buckets are half-open [lo, hi), so the
          // inclusive upper bound of bucket idx is hi-1.
          out += strf("%s_bucket{le=\"%llu\"} %llu\n", pn.c_str(),
                      static_cast<unsigned long long>(Histogram::bucket_hi(idx) - 1),
                      static_cast<unsigned long long>(cum));
        }
        out += strf("%s_bucket{le=\"+Inf\"} %llu\n", pn.c_str(),
                    static_cast<unsigned long long>(v.hist.count));
        out += strf("%s_sum %llu\n", pn.c_str(),
                    static_cast<unsigned long long>(v.hist.sum));
        out += strf("%s_count %llu\n", pn.c_str(),
                    static_cast<unsigned long long>(v.hist.count));
        break;
      }
    }
  }
  return out;
}

// --- parse_bench_json --------------------------------------------------------

double BenchDoc::get(const std::string& key, double fallback) const {
  auto it = flat.find(key);
  return it == flat.end() ? fallback : it->second;
}

namespace {

void skip_ws(const std::string& s, size_t* p) {
  while (*p < s.size() && std::isspace(static_cast<unsigned char>(s[*p]))) ++*p;
}

bool parse_num(const std::string& s, size_t* p, double* out) {
  skip_ws(s, p);
  const char* start = s.c_str() + *p;
  char* end = nullptr;
  double v = std::strtod(start, &end);
  if (end == start) return false;
  *p += static_cast<size_t>(end - start);
  *out = v;
  return true;
}

}  // namespace

bool parse_string(const std::string& s, size_t* p, std::string* out) {
  skip_ws(s, p);
  if (*p >= s.size() || s[*p] != '"') return false;
  ++*p;
  out->clear();
  while (*p < s.size() && s[*p] != '"') {
    char c = s[(*p)++];
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (*p >= s.size()) return false;
    switch (char e = s[(*p)++]) {
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case '"':
      case '\\': out->push_back(e); break;
      case 'u': {
        // json_escape writes \u00XX for the other C0 bytes: ASCII only.
        unsigned v = 0;
        const char* digits = s.data() + *p;
        auto [end, ec] = std::from_chars(digits, s.data() + std::min(s.size(), *p + 4), v, 16);
        if (ec != std::errc() || end != digits + 4 || v >= 0x80) return false;
        *p += 4;
        out->push_back(static_cast<char>(v));
        break;
      }
      default: return false;
    }
  }
  if (*p >= s.size()) return false;
  ++*p;  // closing quote
  return true;
}

bool parse_object(const std::string& s, size_t* p,
                  const std::function<bool(const std::string&)>& value) {
  skip_ws(s, p);
  if (*p >= s.size() || s[*p] != '{') return false;
  ++*p;
  for (;;) {
    skip_ws(s, p);
    if (*p < s.size() && s[*p] == '}') {
      ++*p;
      return true;
    }
    std::string key;
    if (!parse_string(s, p, &key)) return false;
    skip_ws(s, p);
    if (*p >= s.size() || s[*p] != ':') return false;
    ++*p;
    if (!value(key)) return false;
    skip_ws(s, p);
    if (*p < s.size() && s[*p] == ',') ++*p;
  }
}

bool parse_metrics(const std::string& s, size_t* p, std::map<std::string, double>* out) {
  return parse_object(s, p, [&](const std::string& key) {
    skip_ws(s, p);
    if (*p < s.size() && s[*p] == '{')  // histogram sub-object: {"count":...,"p50":...}
      return parse_object(s, p, [&](const std::string& field) {
        return parse_num(s, p, &(*out)[key + "/" + field]);
      });
    return parse_num(s, p, &(*out)[key]);
  });
}

bool parse_bench_json(const std::string& text, BenchDoc* out) {
  out->flat.clear();
  // Header fields are optional so a bare metrics object also parses.
  if (size_t bp = text.find("\"bench\":"); bp != std::string::npos) {
    size_t p = bp + 8;
    parse_string(text, &p, &out->bench);
  }
  if (size_t sp = text.find("\"schema\":"); sp != std::string::npos) {
    size_t p = sp + 9;
    double v = 0;
    if (parse_num(text, &p, &v)) out->schema = static_cast<int>(v);
  }
  // Without a "metrics" key the whole document is the metrics object.
  size_t mp = text.find("\"metrics\":");
  size_t p = mp != std::string::npos ? mp + 10 : 0;
  return parse_metrics(text, &p, &out->flat);
}

}  // namespace crp::obs::expo
