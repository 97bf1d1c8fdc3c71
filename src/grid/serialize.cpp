#include "grid/serialize.h"

#include <map>

#include "common/check.h"
#include "common/strings.h"
#include "grid/builder.h"

namespace fpva::grid {

using common::cat;
using common::check;

std::string to_ascii(const ValveArray& array) {
  std::map<Site, char> port_chars;
  for (const Port& port : array.ports()) {
    port_chars[port.site] = port.kind == PortKind::kSource ? 'S' : 'M';
  }

  std::string out;
  out.reserve(static_cast<std::size_t>(
      (array.site_cols() + 1) * array.site_rows()));
  for (int r = 0; r < array.site_rows(); ++r) {
    for (int c = 0; c < array.site_cols(); ++c) {
      const Site site{r, c};
      char glyph = '+';
      if (has_cell_parity(site)) {
        const Cell cell{(r - 1) / 2, (c - 1) / 2};
        glyph = array.cell_kind(cell) == CellKind::kFluid ? '.' : '#';
      } else if (has_valve_parity(site)) {
        if (const auto found = port_chars.find(site);
            found != port_chars.end()) {
          glyph = found->second;
        } else {
          switch (array.site_kind(site)) {
            case SiteKind::kValve: glyph = 'v'; break;
            case SiteKind::kChannel: glyph = 'o'; break;
            case SiteKind::kWall: glyph = '#'; break;
          }
        }
      }
      out += glyph;
    }
    out += '\n';
  }
  return out;
}

ValveArray parse_ascii(const std::string& text) {
  std::vector<std::string> lines;
  for (std::string& line : common::split(text, '\n')) {
    if (!common::trim(line).empty()) {
      lines.push_back(std::move(line));
    }
  }
  check(!lines.empty(), "parse_ascii: empty site map");
  const std::size_t width = lines.front().size();
  for (const std::string& line : lines) {
    check(line.size() == width, "parse_ascii: ragged site map");
  }
  check(lines.size() % 2 == 1 && width % 2 == 1,
        "parse_ascii: site map dimensions must be odd");
  const int rows = static_cast<int>(lines.size()) / 2;
  const int cols = static_cast<int>(width) / 2;
  check(rows >= 1 && cols >= 1, "parse_ascii: array too small");

  LayoutBuilder builder(rows, cols);
  int next_source = 0;
  int next_sink = 0;
  for (int r = 0; r < static_cast<int>(lines.size()); ++r) {
    for (int c = 0; c < static_cast<int>(width); ++c) {
      const Site site{r, c};
      const char glyph = lines[static_cast<std::size_t>(r)]
                              [static_cast<std::size_t>(c)];
      if (has_cell_parity(site)) {
        if (glyph == '#') {
          const Cell cell{(r - 1) / 2, (c - 1) / 2};
          builder.obstacle_rect(cell, cell);
        } else {
          if (glyph != '.') {
            common::fail(cat("parse_ascii: bad cell glyph '", glyph, "' at ",
                             to_string(site)));
          }
        }
      } else if (has_valve_parity(site)) {
        switch (glyph) {
          case 'v':
          case '#':
            break;  // the builder default; obstacle pass fixes frontiers
          case 'o':
            builder.channel(site);
            break;
          case 'S':
            builder.port(site, PortKind::kSource, cat('S', next_source++));
            break;
          case 'M':
            builder.port(site, PortKind::kSink, cat('M', next_sink++));
            break;
          default:
            common::fail(cat("parse_ascii: bad valve glyph '", glyph,
                             "' at ", to_string(site)));
        }
      } else {
        if (glyph != '+') {
          common::fail(cat("parse_ascii: bad post glyph '", glyph, "' at ",
                           to_string(site)));
        }
      }
    }
  }
  ValveArray array = builder.build();
  // The builder derives each valve site from the cells beside it, so a 'v'
  // on the boundary ring would come out a wall and a '#' between two fluid
  // cells a valve. A map the built array contradicts is rejected, not
  // silently reinterpreted.
  const std::vector<std::string> rendered =
      common::split(to_ascii(array), '\n');
  for (int r = 0; r < static_cast<int>(lines.size()); ++r) {
    const std::string& line = lines[static_cast<std::size_t>(r)];
    const std::string& built = rendered[static_cast<std::size_t>(r)];
    for (int c = 0; c < static_cast<int>(width); ++c) {
      const auto column = static_cast<std::size_t>(c);
      if (line[column] != built[column]) {
        common::fail(cat("parse_ascii: glyph '", line[column], "' at ",
                         to_string(Site{r, c}),
                         " contradicts the built array ('", built[column],
                         "')"));
      }
    }
  }
  return array;
}

}  // namespace fpva::grid
