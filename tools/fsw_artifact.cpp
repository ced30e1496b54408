// fsw_artifact — structural inspector for fsw cache artifacts.
//
//   fsw_artifact <file>...
//
// Walks every artifact block in each file (blocks may be concatenated, so
// the walk just continues) and prints one line per block: format, version,
// declared entries and encoded size, then a per-file total:
//
//   $ fsw_artifact results.bin
//   results.bin  result-cache  v2  19 entries  6384 B
//   results.bin  total: 1 unit, 6384 bytes
//
// A malformed unit stops the walk with the decoder's error (which names
// the entry and byte offset) and the exit code turns nonzero — usable as a
// cheap integrity check over a directory of warm-start dumps.
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>

#include "src/io/serialize.hpp"

namespace {

/// Inspects every unit in one stream; returns false on a malformed unit.
bool inspectFile(const std::string& path, std::istream& is) {
  std::size_t units = 0;
  std::uint64_t totalBytes = 0;
  for (;;) {
    is >> std::ws;
    if (is.peek() == std::char_traits<char>::eof()) break;
    fsw::ArtifactInfo info;
    try {
      info = fsw::inspectArtifact(is);
    } catch (const std::exception& e) {
      std::cerr << path << ": unit " << (units + 1) << ": " << e.what()
                << "\n";
      return false;
    }
    ++units;
    totalBytes += info.bytes;
    std::cout << path << "  " << std::left << std::setw(12) << info.kind
              << "  v" << info.version << "  " << info.entries
              << " entries  " << info.bytes << " B\n";
  }
  if (units == 0) {
    std::cerr << path << ": empty artifact\n";
    return false;
  }
  std::cout << path << "  total: " << units
            << (units == 1 ? " unit, " : " units, ") << totalBytes
            << " bytes\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: fsw_artifact <file>...\n"
              << "Prints the structure of fsw cache artifacts (score and "
              << "result caches).\n";
    return 2;
  }
  bool ok = true;
  for (int i = 1; i < argc; ++i) {
    const std::string path = argv[i];
    std::ifstream is(path, std::ios::binary);
    if (!is) {
      std::cerr << path << ": cannot open\n";
      ok = false;
      continue;
    }
    ok = inspectFile(path, is) && ok;
  }
  return ok ? 0 : 1;
}
