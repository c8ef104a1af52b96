#include "util/csv.hh"

#include <fstream>
#include <sstream>

#include "util/error.hh"

namespace sleepscale {

void
CsvTable::addRow(const std::vector<double> &row)
{
    fatalIf(row.size() != headers.size(),
            "CsvTable::addRow: row width does not match header count");
    rows.push_back(row);
}

std::size_t
CsvTable::columnIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < headers.size(); ++i) {
        if (headers[i] == name)
            return i;
    }
    fatal("CsvTable: no column named '" + name + "'");
}

std::vector<double>
CsvTable::column(const std::string &name) const
{
    const std::size_t idx = columnIndex(name);
    std::vector<double> out;
    out.reserve(rows.size());
    for (const auto &row : rows)
        out.push_back(row[idx]);
    return out;
}

std::string
toCsv(const CsvTable &table)
{
    std::ostringstream out;
    for (std::size_t i = 0; i < table.headers.size(); ++i) {
        if (i)
            out << ',';
        out << table.headers[i];
    }
    out << '\n';
    out.precision(17);
    for (const auto &row : table.rows) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            if (i)
                out << ',';
            out << row[i];
        }
        out << '\n';
    }
    return out.str();
}

CsvTable
fromCsv(const std::string &text)
{
    CsvTable table;
    std::istringstream in(text);
    std::string line;
    // Read CRLF files as the trace and replay loaders do.
    const auto nextLine = [&in, &line] {
        if (!std::getline(in, line))
            return false;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        return true;
    };

    fatalIf(!nextLine(), "fromCsv: empty input");
    {
        std::istringstream header(line);
        std::string cell;
        while (std::getline(header, cell, ','))
            table.headers.push_back(cell);
    }
    fatalIf(table.headers.empty(), "fromCsv: no header columns");

    while (nextLine()) {
        if (line.empty())
            continue;
        std::istringstream fields(line);
        std::string cell;
        std::vector<double> row;
        while (std::getline(fields, cell, ',')) {
            double value = 0.0;
            if (!tryParseCsvDouble(cell, value))
                fatal("fromCsv: non-numeric cell '" + cell + "'");
            row.push_back(value);
        }
        table.addRow(row);
    }
    return table;
}

bool
tryParseCsvDouble(const std::string &cell, double &out)
{
    try {
        std::size_t used = 0;
        out = std::stod(cell, &used);
        return used == cell.size();
    } catch (const std::exception &) {
        return false;
    }
}

std::string
csvQuote(const std::string &cell)
{
    if (cell.find_first_of(",\"\n") == std::string::npos)
        return cell;
    std::string quoted = "\"";
    for (char c : cell) {
        if (c == '"')
            quoted += '"';
        quoted += c;
    }
    return quoted + "\"";
}

void
writeTextFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    fatalIf(!out, "cannot open '" + path + "' for writing");
    out << text;
    fatalIf(!out, "write to '" + path + "' failed");
}

void
writeCsvFile(const std::string &path, const CsvTable &table)
{
    writeTextFile(path, toCsv(table));
}

CsvTable
readCsvFile(const std::string &path)
{
    std::ifstream in(path);
    fatalIf(!in, "readCsvFile: cannot open '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return fromCsv(buffer.str());
}

} // namespace sleepscale
