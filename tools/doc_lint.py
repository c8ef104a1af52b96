#!/usr/bin/env python3
"""Documentation lint for every public header under src/.

Fails (exit 1) with a file:line warning for every public declaration that
carries no documentation comment. The rules mirror what Doxygen's
WARN_IF_UNDOCUMENTED reports for this codebase's comment style, so the
check runs in CI even where the doxygen binary is not installed (the
tracked Doxyfile drives the identical check over src/farm and
src/experiment where it is):

  - every header starts with a file-level ``/** @file`` comment;
  - every top-level class/struct/enum/using/function declaration is
    preceded by a ``/** ... */`` block (or ``///`` line);
  - every public member (field, method, nested type) is preceded by a
    doc block or documented in place with a trailing ``///<``;
  - ``override`` members, ``= default``/``= delete`` members, and
    private/protected sections are exempt.

Usage: tools/doc_lint.py [header ...]   (defaults to src/**/*.hh)
"""

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_GLOBS = ("src/**/*.hh",)

ACCESS_RE = re.compile(r"^\s*(public|protected|private)\s*:")
TYPE_OPEN_RE = re.compile(
    r"^\s*(?:template\s*<[^>]*>\s*)?(class|struct|enum(?:\s+class)?|union)"
    r"\s+(\w+)")
EXEMPT_RE = re.compile(r"\boverride\b|=\s*delete|=\s*default")


def strip_strings(line):
    """Blank out string/char literals so braces inside them don't count."""
    return re.sub(r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\'', '""', line)


class Scope:
    def __init__(self, kind, access, documented):
        self.kind = kind              # "type", "namespace", or "block"
        self.access = access          # current access inside a type
        self.documented = documented  # the scope itself carried a doc


def lint_file(path):
    warnings = []
    text = path.read_text()
    lines = text.splitlines()

    if not re.search(r"/\*\*\s*\n\s*\*\s*@file", text):
        warnings.append((path, 1, "missing /** @file ... */ header"))

    scopes = []          # mirrors brace nesting
    pending_doc = False  # a doc comment directly precedes the cursor
    in_comment = False
    comment_is_doc = False  # the open comment is /** or /*! (not /*)
    decl = ""            # accumulating a (possibly multi-line) declaration
    decl_line = 0
    decl_doc = False

    def decl_scope():
        """Innermost scope a declaration at this point belongs to."""
        return scopes[-1] if scopes else None

    def check(declaration, line_no, documented):
        declaration = " ".join(declaration.split())
        if not declaration or declaration.startswith("}"):
            return
        scope = decl_scope()
        if scope is not None and scope.kind == "block":
            return  # Statements inside an inline body.
        in_type = scope is not None and scope.kind == "type"
        if in_type and scope.access != "public":
            return
        if EXEMPT_RE.search(declaration):
            return
        if re.match(r"^(public|protected|private)\s*:", declaration):
            return
        if declaration.startswith(("friend ", "typedef ")):
            return
        if "///<" in declaration:
            return
        if not documented:
            where = "public member" if in_type else "declaration"
            warnings.append(
                (path, line_no,
                 "undocumented %s: %s" %
                 (where, declaration[:60])))

    for i, raw in enumerate(lines, start=1):
        line = raw

        # ---- comment tracking ----
        if in_comment:
            if "*/" in line:
                in_comment = False
                # Only a documentation comment (/** or /*!) counts;
                # a plain /* ... */ block does not document anything.
                pending_doc = comment_is_doc
            continue
        stripped = line.strip()
        if stripped.startswith("/**") or stripped.startswith("/*!"):
            if "*/" not in stripped:
                in_comment = True
                comment_is_doc = True
            else:
                pending_doc = True
            continue
        if stripped.startswith("///") or stripped.startswith("//!"):
            pending_doc = True
            continue
        if stripped.startswith("//") or stripped.startswith("/*"):
            if stripped.startswith("/*") and "*/" not in stripped:
                in_comment = True
                comment_is_doc = False
            continue
        if not stripped or stripped.startswith("#"):
            if not decl:
                # Blank lines and preprocessor lines break the doc bond.
                pending_doc = False
            continue

        code = strip_strings(line.split("//")[0])
        bare = code.strip()

        # ---- access specifiers ----
        access = ACCESS_RE.match(bare)
        if access and scopes and scopes[-1].kind == "type":
            scopes[-1].access = access.group(1)
            pending_doc = False
            continue

        if bare.startswith("namespace") and "{" in bare:
            scopes.append(Scope("namespace", "public", True))
            pending_doc = False
            continue

        # ---- declaration accumulation ----
        if not decl:
            decl_line = i
            decl_doc = pending_doc
        if "///<" in raw:
            decl_doc = True  # Documented in place, trailing style.
        decl += " " + bare
        pending_doc = False

        opens = code.count("{")
        closes = code.count("}")

        terminated = False
        if opens > closes:
            # A scope opens: type, function body, or initializer.
            joined = " ".join(decl.split())
            type_open = TYPE_OPEN_RE.match(joined)
            check(joined, decl_line, decl_doc)
            if type_open:
                kind = "type"
                default_access = ("private"
                                  if type_open.group(1) == "class"
                                  else "public")
                scopes.append(Scope(kind, default_access, decl_doc))
            else:
                scopes.append(Scope("block", "public", True))
            # Inline one-liner bodies ("double x() { return _x; }")
            # close again on the same line.
            for _ in range(closes):
                if scopes:
                    scopes.pop()
            decl = ""
            terminated = True
        elif closes > opens:
            for _ in range(closes - opens):
                if scopes:
                    scopes.pop()
            decl = ""
            terminated = True
        elif ";" in bare or (opens and opens == closes):
            joined = " ".join(decl.split())
            if not joined.lstrip().startswith("}"):
                check(joined, decl_line, decl_doc)
            decl = ""
            terminated = True

        if not terminated and len(decl) > 4000:
            decl = ""  # Safety valve; never triggered by sane headers.

    return warnings


def main(argv):
    if len(argv) > 1:
        paths = [Path(arg) for arg in argv[1:]]
    else:
        paths = []
        for pattern in DEFAULT_GLOBS:
            paths.extend(sorted(REPO_ROOT.glob(pattern)))
    if not paths:
        print("doc_lint: no headers matched", file=sys.stderr)
        return 1

    warnings = []
    for path in paths:
        warnings.extend(lint_file(path))

    for path, line, message in warnings:
        try:
            shown = path.relative_to(REPO_ROOT)
        except ValueError:
            shown = path
        print("%s:%d: warning: %s" % (shown, line, message))

    if warnings:
        print("doc_lint: %d documentation warning(s) in %d header(s)" %
              (len(warnings), len(paths)), file=sys.stderr)
        return 1
    print("doc_lint: %d header(s) clean" % len(paths))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
