// Minimal CSV reading/writing behind the carbon-trace import/export
// (carbon/trace_io.hpp) and the serving loop's per-window export.
// RFC-4180-style quoting is supported on both paths.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace carbonedge::util {

/// A parsed CSV document: a header row plus data rows of equal arity.
struct CsvDocument {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Index of a named column, or npos if absent.
  [[nodiscard]] std::size_t column(std::string_view name) const noexcept;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/// Parse CSV text. Throws std::runtime_error on ragged rows or unterminated
/// quotes. An empty input yields an empty document.
[[nodiscard]] CsvDocument parse_csv(std::string_view text, bool has_header = true);

/// Incremental CSV writer.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  void header(const std::vector<std::string>& names);
  void row(const std::vector<std::string>& cells);

 private:
  void write_cells(const std::vector<std::string>& cells);
  std::ostream* out_;
};

/// Quote a cell if it contains separators, quotes, or newlines.
[[nodiscard]] std::string csv_escape(std::string_view cell);

/// Format a double with fixed precision, trimming trailing zeros.
[[nodiscard]] std::string format_double(double value, int precision = 6);

}  // namespace carbonedge::util
