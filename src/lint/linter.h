// The linter driver: maps on-disk artifacts to the check families in
// checks.h. This is what `daspos lint` calls; the individual checks stay
// usable in-process (the workflow engine gates Execute on
// CheckWorkflowGraph without going through files).
#ifndef DASPOS_LINT_LINTER_H_
#define DASPOS_LINT_LINTER_H_

#include <string>

#include "lint/checks.h"

namespace daspos {
namespace lint {

/// Lints one artifact path. Type detection:
///   directory, or a file:/pack:/pack+z: store spec naming one
///                                     -> archive, opened through
///                                        OpenObjectStore (a bare directory
///                                        is sniffed: pack or loose files)
///   anything else                     -> the file's bytes, via LintBytes
/// Unreadable artifacts yield a G002 finding — the call itself never
/// fails, so one broken path cannot hide findings from the others.
LintReport LintPath(const std::string& path);

/// Lints one artifact's bytes, without disk I/O; findings name it `name`.
///   JSON array of provenance records  -> provenance chain
///   JSON object with "tags"           -> conditions dump (other JSON: G001)
///   anything else                     -> LHADA analysis description
LintReport LintBytes(const std::string& name, const std::string& bytes);

}  // namespace lint
}  // namespace daspos

#endif  // DASPOS_LINT_LINTER_H_
