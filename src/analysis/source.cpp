#include "analysis/source.hpp"

#include <cctype>
#include <cstddef>

namespace fedca::analysis {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

void add_comment(SourceFile& f, int line, const std::string& body) {
  std::string& slot = f.comments[line];
  if (!slot.empty()) slot += ' ';
  slot += body;
}

// Two-character punctuators we keep intact. Angle brackets are left as
// single tokens on purpose: `>>` must close two template lists.
bool two_char_punct(char a, char b) {
  switch (a) {
    case ':': return b == ':';
    case '-': return b == '>' || b == '-' || b == '=';
    case '+': return b == '+' || b == '=';
    case '*': return b == '=';
    case '/': return b == '=';
    case '=': return b == '=';
    case '!': return b == '=';
    case '&': return b == '&' || b == '=';
    case '|': return b == '|' || b == '=';
    default: return false;
  }
}

void extract_waivers(SourceFile& f) {
  static const std::string kTag = "analyze:waive(";
  for (const auto& [line, text] : f.comments) {
    std::size_t at = 0;
    Waiver waiver;
    waiver.line = line;
    while ((at = text.find(kTag, at)) != std::string::npos) {
      std::size_t i = at + kTag.size();
      std::string rule;
      while (i < text.size() && text[i] != ')') {
        const char c = text[i++];
        if (c == ',' || c == ' ') {
          if (!rule.empty()) waiver.rules.push_back(rule);
          rule.clear();
        } else {
          rule += c;
        }
      }
      if (!rule.empty()) waiver.rules.push_back(rule);
      at = i;
    }
    if (!waiver.rules.empty()) f.waivers.push_back(waiver);
  }
}

void build_bracket_tables(SourceFile& f) {
  f.paren_match.assign(f.tokens.size(), -1);
  f.brace_match.assign(f.tokens.size(), -1);
  std::vector<std::size_t> parens;
  std::vector<std::size_t> braces;
  for (std::size_t i = 0; i < f.tokens.size(); ++i) {
    const Token& t = f.tokens[i];
    if (t.kind != TokenKind::kPunct || t.text.size() != 1) continue;
    switch (t.text[0]) {
      case '(': parens.push_back(i); break;
      case ')':
        if (!parens.empty()) {
          f.paren_match[parens.back()] = static_cast<int>(i);
          f.paren_match[i] = static_cast<int>(parens.back());
          parens.pop_back();
        }
        break;
      case '{': braces.push_back(i); break;
      case '}':
        if (!braces.empty()) {
          f.brace_match[braces.back()] = static_cast<int>(i);
          f.brace_match[i] = static_cast<int>(braces.back());
          braces.pop_back();
        }
        break;
      default: break;
    }
  }
}

}  // namespace

std::size_t skip_template_args(const SourceFile& f, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < f.tokens.size(); ++i) {
    const Token& t = f.tokens[i];
    if (t.kind != TokenKind::kPunct) continue;
    if (t.text == "<") {
      ++depth;
    } else if (t.text == ">") {
      if (--depth == 0) return i + 1;
    } else if (t.text == ";" || t.text == "{") {
      break;  // never a template argument list — bail out
    }
  }
  return open + 1;
}

bool is_cmake_path(const std::string& rel_path) {
  const std::size_t slash = rel_path.rfind('/');
  const std::string base =
      slash == std::string::npos ? rel_path : rel_path.substr(slash + 1);
  return base == "CMakeLists.txt" ||
         (base.size() > 6 && base.compare(base.size() - 6, 6, ".cmake") == 0);
}

void lex_cmake(const std::string& text, SourceFile& f) {
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(begin, end - begin);
    f.cmake_lines.push_back(line.substr(0, line.find('#')));
    begin = end + 1;
  }
}

void lex_source(const std::string& text, SourceFile& f) {
  const std::size_t n = text.size();
  std::size_t i = 0;
  int line = 1;
  bool line_has_code = false;

  auto push = [&](std::string tok, TokenKind kind) {
    f.tokens.push_back(Token{std::move(tok), line, kind});
  };

  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      line_has_code = false;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++i;
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      std::size_t j = i + 2;
      while (j < n && text[j] != '\n') ++j;
      add_comment(f, line, text.substr(i + 2, j - i - 2));
      i = j;
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      const int start = line;
      std::size_t j = i + 2;
      std::string body;
      while (j + 1 < n && !(text[j] == '*' && text[j + 1] == '/')) {
        if (text[j] == '\n') ++line;
        body += text[j++];
      }
      add_comment(f, start, body);
      i = (j + 1 < n) ? j + 2 : n;
      continue;
    }
    // Preprocessor logical line ('#' first non-whitespace on the line).
    if (c == '#' && !line_has_code) {
      const int pp_line = line;
      std::size_t j = i + 1;
      while (j < n && (text[j] == ' ' || text[j] == '\t')) ++j;
      std::string directive;
      while (j < n && ident_char(text[j])) directive += text[j++];
      if (directive == "include" || directive == "include_next") {
        while (j < n && (text[j] == ' ' || text[j] == '\t')) ++j;
        if (j < n && (text[j] == '"' || text[j] == '<')) {
          const char close = text[j] == '"' ? '"' : '>';
          std::size_t k = j + 1;
          std::string path;
          while (k < n && text[k] != close && text[k] != '\n') path += text[k++];
          f.includes.push_back(IncludeDirective{pp_line, path, close == '>'});
        }
      }
      // Consume to the end of the logical line, honoring continuations and
      // trailing comments (which may carry waivers).
      while (j < n) {
        const char d = text[j];
        if (d == '\\' && j + 1 < n && text[j + 1] == '\n') {
          ++line;
          j += 2;
          continue;
        }
        if (d == '\\' && j + 2 < n && text[j + 1] == '\r' && text[j + 2] == '\n') {
          ++line;
          j += 3;
          continue;
        }
        if (d == '\n') break;
        if (d == '/' && j + 1 < n && text[j + 1] == '/') {
          std::size_t k = j + 2;
          while (k < n && text[k] != '\n') ++k;
          add_comment(f, line, text.substr(j + 2, k - j - 2));
          j = k;
          break;
        }
        if (d == '/' && j + 1 < n && text[j + 1] == '*') {
          const int start = line;
          std::size_t k = j + 2;
          std::string body;
          while (k + 1 < n && !(text[k] == '*' && text[k + 1] == '/')) {
            if (text[k] == '\n') ++line;
            body += text[k++];
          }
          add_comment(f, start, body);
          j = (k + 1 < n) ? k + 2 : n;
          continue;
        }
        ++j;
      }
      i = j;
      continue;
    }
    line_has_code = true;
    // Raw string literal.
    if (c == 'R' && i + 1 < n && text[i + 1] == '"') {
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && text[j] != '(' && text[j] != '\n') delim += text[j++];
      const std::string closer = ")" + delim + "\"";
      std::size_t end = text.find(closer, j);
      const std::size_t stop = (end == std::string::npos) ? n : end + closer.size();
      for (std::size_t k = i; k < stop; ++k) {
        if (text[k] == '\n') ++line;
      }
      push("\"\"", TokenKind::kString);
      i = stop;
      continue;
    }
    if (c == '"') {
      std::size_t j = i + 1;
      while (j < n && text[j] != '"') {
        if (text[j] == '\\' && j + 1 < n) ++j;
        if (text[j] == '\n') ++line;
        ++j;
      }
      push("\"\"", TokenKind::kString);
      i = (j < n) ? j + 1 : n;
      continue;
    }
    if (c == '\'') {
      std::size_t j = i + 1;
      while (j < n && text[j] != '\'' && text[j] != '\n') {
        if (text[j] == '\\' && j + 1 < n) ++j;
        ++j;
      }
      push("''", TokenKind::kCharLit);
      i = (j < n && text[j] == '\'') ? j + 1 : j;
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_char(text[j])) ++j;
      push(text.substr(i, j - i), TokenKind::kIdent);
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      // Numbers swallow digit separators ('), hex/float suffixes, and
      // exponent signs so a separator never opens a char literal.
      std::size_t j = i;
      while (j < n) {
        const char d = text[j];
        if (ident_char(d) || d == '.' || d == '\'') {
          ++j;
        } else if ((d == '+' || d == '-') && j > i &&
                   (text[j - 1] == 'e' || text[j - 1] == 'E' ||
                    text[j - 1] == 'p' || text[j - 1] == 'P')) {
          ++j;
        } else {
          break;
        }
      }
      push(text.substr(i, j - i), TokenKind::kNumber);
      i = j;
      continue;
    }
    if (i + 1 < n && two_char_punct(c, text[i + 1])) {
      push(text.substr(i, 2), TokenKind::kPunct);
      i += 2;
      continue;
    }
    push(std::string(1, c), TokenKind::kPunct);
    ++i;
  }

  extract_waivers(f);
  build_bracket_tables(f);
}

}  // namespace fedca::analysis
