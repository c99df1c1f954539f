/**
 * @file
 * Plain-text table formatting for report output.
 *
 * Every `ppa_cli sweep` figure reproduces one of the paper's tables or
 * figures; this formatter renders their rows the way the paper
 * reports them.
 */

#ifndef PPA_COMMON_TABLE_HH
#define PPA_COMMON_TABLE_HH

#include <string>
#include <vector>

namespace ppa
{

/**
 * Accumulates rows of string cells and renders an aligned ASCII table.
 */
class TextTable
{
  public:
    /** Construct with column headers. */
    explicit TextTable(std::vector<std::string> headers);

    /** Append one row; the cell count must match the header count. */
    void addRow(std::vector<std::string> cells);

    /** Render the table, column-aligned, with a header separator. */
    std::string render() const;

    /** Convenience: format a double with @p precision decimals. */
    static std::string num(double v, int precision = 2);

    /** Convenience: format as a multiplicative factor, e.g. "1.26x". */
    static std::string factor(double v, int precision = 2);

    /** Convenience: format as a percentage, e.g. "2.1%". */
    static std::string percent(double v, int precision = 1);

  private:
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
};

} // namespace ppa

#endif // PPA_COMMON_TABLE_HH
