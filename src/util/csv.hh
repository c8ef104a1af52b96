/**
 * @file
 * Minimal CSV reading/writing for traces and experiment output.
 */

#ifndef SLEEPSCALE_UTIL_CSV_HH
#define SLEEPSCALE_UTIL_CSV_HH

#include <string>
#include <vector>

namespace sleepscale {

/** A CSV table of doubles with named columns. */
struct CsvTable
{
    /** Column headers, one per column. */
    std::vector<std::string> headers;
    /** Row-major data; every row has headers.size() entries. */
    std::vector<std::vector<double>> rows;

    /** Append a row; its width must match the header count. */
    void addRow(const std::vector<double> &row);

    /** Index of a named column, or fatal() if absent. */
    std::size_t columnIndex(const std::string &name) const;

    /** Extract one column by name. */
    std::vector<double> column(const std::string &name) const;
};

/**
 * Serialize a table as RFC-4180-style CSV text.
 */
std::string toCsv(const CsvTable &table);

/**
 * Parse CSV text produced by toCsv (numeric cells, first line headers).
 */
CsvTable fromCsv(const std::string &text);

/**
 * Strictly parse one CSV cell as a double: the whole cell must be
 * consumed (no trailing junk).
 *
 * @param cell The cell text.
 * @param out Receives the value on success.
 * @return True when the cell parsed cleanly.
 */
bool tryParseCsvDouble(const std::string &cell, double &out);

/**
 * RFC-4180 quote a text cell for CSV output: returned verbatim when no
 * quoting is needed, otherwise wrapped in double quotes with embedded
 * quotes doubled.
 */
std::string csvQuote(const std::string &cell);

/** Write text to a file, fatal() on I/O failure. */
void writeTextFile(const std::string &path, const std::string &text);

/** Write a table to a file, fatal() on I/O failure. */
void writeCsvFile(const std::string &path, const CsvTable &table);

/** Read a table from a file, fatal() on I/O failure. */
CsvTable readCsvFile(const std::string &path);

} // namespace sleepscale

#endif // SLEEPSCALE_UTIL_CSV_HH
