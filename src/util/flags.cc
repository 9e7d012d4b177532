#include "util/flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <system_error>

namespace lego::flags {

namespace {

/// `text` in single quotes. Built by appending: GCC 12 reports a false
/// -Wrestrict on `"'" + std::string(...)`.
std::string Quoted(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '\'';
  out += text;
  out += '\'';
  return out;
}

template <typename T>
Status ParseNumber(std::string_view text, const char* what, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument(Quoted(text) + " is out of range for " +
                                   what);
  }
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument(Quoted(text) + " is not " + what);
  }
  *out = value;
  return Status::OK();
}

/// Stores `value` into the row's destination.
Status Assign(const Target& target, std::string_view value) {
  struct Visitor {
    std::string_view value;
    Status operator()(bool*) const { return Status::OK(); }
    Status operator()(int* out) const { return ParseInt(value, out); }
    Status operator()(uint64_t* out) const { return ParseUint64(value, out); }
    Status operator()(double* out) const { return ParseDouble(value, out); }
    Status operator()(std::string* out) const {
      *out = std::string(value);
      return Status::OK();
    }
    Status operator()(std::vector<std::string>* out) const {
      out->emplace_back(value);
      return Status::OK();
    }
    Status operator()(const Setter& set) const { return set(value); }
  };
  return std::visit(Visitor{value}, target);
}

}  // namespace

Status ParseInt(std::string_view text, int* out) {
  return ParseNumber(text, "an integer", out);
}

Status ParseUint64(std::string_view text, uint64_t* out) {
  return ParseNumber(text, "an unsigned integer", out);
}

Status ParseDouble(std::string_view text, double* out) {
  double value = 0;
  LEGO_RETURN_IF_ERROR(ParseNumber(text, "a number", &value));
  if (!std::isfinite(value)) {
    return Status::InvalidArgument(Quoted(text) + " is not a finite number");
  }
  *out = value;
  return Status::OK();
}

Status CommandLine::Parse(int argc, const char* const* argv,
                          std::vector<std::string>* positionals) const {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      positionals->emplace_back(arg);
      continue;
    }
    // "--name" or "--name=value"; "-x" and "--" name no row.
    const std::string_view body =
        arg.starts_with("--") ? arg.substr(2) : std::string_view();
    const size_t eq = body.find('=');
    const Flag* flag = nullptr;
    for (const Flag& f : flags) {
      if (f.name == body.substr(0, eq)) flag = &f;
    }
    if (flag == nullptr) {
      return Status::InvalidArgument("unknown flag '" + std::string(arg) +
                                     "'");
    }
    const std::string dashed = "--" + flag->name;
    if (std::holds_alternative<bool*>(flag->target)) {
      if (eq != std::string_view::npos) {
        return Status::InvalidArgument(dashed + " takes no value");
      }
      *std::get<bool*>(flag->target) = true;
      continue;
    }
    std::string_view value;
    if (eq != std::string_view::npos) {
      value = body.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Status::InvalidArgument(dashed + " needs a value (" + flag->arg +
                                     ")");
    }
    Status st = Assign(flag->target, value);
    if (!st.ok()) {
      return Status::InvalidArgument(dashed + ": " + st.message());
    }
  }
  return Status::OK();
}

std::string CommandLine::Usage() const {
  std::vector<std::string> heads;
  size_t width = 0;
  for (const Flag& f : flags) {
    heads.push_back("--" + f.name + (f.arg.empty() ? "" : " " + f.arg));
    width = std::max(width, heads.back().size());
  }
  std::string out = "usage: " + synopsis + "\n";
  if (!flags.empty()) out += "\nflags:\n";
  for (size_t i = 0; i < flags.size(); ++i) {
    out += "  " + heads[i] + std::string(width - heads[i].size() + 2, ' ') +
           flags[i].help + "\n";
  }
  return out;
}

std::vector<std::string> CommandLine::ParseOrExit(
    int argc, const char* const* argv) const {
  std::vector<std::string> positionals;
  Status st = Parse(argc, argv, &positionals);
  if (!st.ok()) Fail(st);
  return positionals;
}

void CommandLine::Fail(const Status& error) const {
  std::fprintf(stderr, "%s\n\n%s", error.message().c_str(), Usage().c_str());
  std::exit(1);
}

}  // namespace lego::flags
