#include "core/expr.h"

#include <cctype>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

namespace manu {

namespace {

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

/// field <op> numeric-literal.
class NumericCompareExpr : public FilterExpr {
 public:
  NumericCompareExpr(FieldId field, CompareOp op, double value)
      : field_(field), op_(op), value_(value) {}

  Status Evaluate(const FilterContext& ctx,
                  ConcurrentBitset* out) const override {
    const ScalarSortedIndex* index =
        ctx.scalar_index ? ctx.scalar_index(field_) : nullptr;
    if (index != nullptr && index->NumRows() == ctx.num_rows) {
      EvaluateWithIndex(*index, out);
      return Status::OK();
    }
    const FieldColumn* col = ctx.column ? ctx.column(field_) : nullptr;
    if (col == nullptr) {
      return Status::NotFound("filter column unavailable");
    }
    for (int64_t row = 0; row < ctx.num_rows; ++row) {
      double v = 0;
      switch (col->type) {
        case DataType::kInt64:
          v = static_cast<double>(col->i64[row]);
          break;
        case DataType::kFloat:
          v = col->f32[row];
          break;
        case DataType::kDouble:
          v = col->f64[row];
          break;
        default:
          return Status::InvalidArgument("non-numeric filter column");
      }
      if (Matches(v)) out->Set(static_cast<size_t>(row));
    }
    return Status::OK();
  }

  double EstimateSelectivity(const FilterContext& ctx) const override {
    const ScalarSortedIndex* index =
        ctx.scalar_index ? ctx.scalar_index(field_) : nullptr;
    if (index == nullptr || index->NumRows() == 0) return 1.0;
    const double n = static_cast<double>(index->NumRows());
    constexpr double kInf = std::numeric_limits<double>::infinity();
    switch (op_) {
      case CompareOp::kEq:
        return static_cast<double>(index->CountRange(value_, value_)) / n;
      case CompareOp::kNe:
        return 1.0 -
               static_cast<double>(index->CountRange(value_, value_)) / n;
      case CompareOp::kLe:
        return static_cast<double>(index->CountRange(-kInf, value_)) / n;
      case CompareOp::kLt:
        return static_cast<double>(index->CountRange(-kInf, value_) -
                                   index->CountRange(value_, value_)) /
               n;
      case CompareOp::kGe:
        return static_cast<double>(index->CountRange(value_, kInf)) / n;
      case CompareOp::kGt:
        return static_cast<double>(index->CountRange(value_, kInf) -
                                   index->CountRange(value_, value_)) /
               n;
    }
    return 1.0;
  }

 private:
  bool Matches(double v) const {
    switch (op_) {
      case CompareOp::kEq:
        return v == value_;
      case CompareOp::kNe:
        return v != value_;
      case CompareOp::kLt:
        return v < value_;
      case CompareOp::kLe:
        return v <= value_;
      case CompareOp::kGt:
        return v > value_;
      case CompareOp::kGe:
        return v >= value_;
    }
    return false;
  }

  void EvaluateWithIndex(const ScalarSortedIndex& index,
                         ConcurrentBitset* out) const {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    switch (op_) {
      case CompareOp::kEq:
        index.EqualsQuery(value_, out);
        return;
      case CompareOp::kNe: {
        index.EqualsQuery(value_, out);
        out->Not();
        return;
      }
      case CompareOp::kLe:
        index.RangeQuery(-kInf, value_, out);
        return;
      case CompareOp::kGe:
        index.RangeQuery(value_, kInf, out);
        return;
      case CompareOp::kLt: {
        // [ -inf, v ] minus { v }: inclusive range then clear equals.
        ConcurrentBitset eq(out->capacity());
        index.RangeQuery(-kInf, value_, out);
        index.EqualsQuery(value_, &eq);
        eq.Not();
        out->And(eq);
        return;
      }
      case CompareOp::kGt: {
        ConcurrentBitset eq(out->capacity());
        index.RangeQuery(value_, kInf, out);
        index.EqualsQuery(value_, &eq);
        eq.Not();
        out->And(eq);
        return;
      }
    }
  }

  FieldId field_;
  CompareOp op_;
  double value_;
};

/// label ==/!= 'literal'.
class LabelCompareExpr : public FilterExpr {
 public:
  LabelCompareExpr(FieldId field, bool negated, std::string value)
      : field_(field), negated_(negated), value_(std::move(value)) {}

  Status Evaluate(const FilterContext& ctx,
                  ConcurrentBitset* out) const override {
    const LabelBitmapIndex* bitmap =
        ctx.label_bitmap ? ctx.label_bitmap(field_) : nullptr;
    if (bitmap != nullptr && bitmap->NumRows() == ctx.num_rows) {
      bitmap->EqualsQuery(value_, out);
      if (negated_) out->Not();
      return Status::OK();
    }
    const FieldColumn* col = ctx.column ? ctx.column(field_) : nullptr;
    if (col == nullptr || col->type != DataType::kString) {
      return Status::NotFound("label filter column unavailable");
    }
    for (int64_t row = 0; row < ctx.num_rows; ++row) {
      if ((col->str[row] == value_) != negated_) {
        out->Set(static_cast<size_t>(row));
      }
    }
    return Status::OK();
  }

  double EstimateSelectivity(const FilterContext& ctx) const override {
    if (ctx.num_rows == 0) return 1.0;
    const double n = static_cast<double>(ctx.num_rows);
    // O(log labels) posting-length estimates when an index is resident.
    const LabelBitmapIndex* bitmap =
        ctx.label_bitmap ? ctx.label_bitmap(field_) : nullptr;
    if (bitmap != nullptr && bitmap->NumRows() == ctx.num_rows) {
      const double eq = static_cast<double>(bitmap->PostingSize(value_)) / n;
      return negated_ ? 1.0 - eq : eq;
    }
    ConcurrentBitset tmp(static_cast<size_t>(ctx.num_rows));
    if (!Evaluate(ctx, &tmp).ok()) return 1.0;
    return static_cast<double>(tmp.Count()) / n;
  }

 private:
  FieldId field_;
  bool negated_;
  std::string value_;
};

class NotExpr : public FilterExpr {
 public:
  explicit NotExpr(std::unique_ptr<FilterExpr> child)
      : child_(std::move(child)) {}

  Status Evaluate(const FilterContext& ctx,
                  ConcurrentBitset* out) const override {
    MANU_RETURN_NOT_OK(child_->Evaluate(ctx, out));
    out->Not();
    return Status::OK();
  }

  double EstimateSelectivity(const FilterContext& ctx) const override {
    return 1.0 - child_->EstimateSelectivity(ctx);
  }

 private:
  std::unique_ptr<FilterExpr> child_;
};

class BinaryExpr : public FilterExpr {
 public:
  BinaryExpr(bool is_and, std::unique_ptr<FilterExpr> lhs,
             std::unique_ptr<FilterExpr> rhs)
      : is_and_(is_and), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Status Evaluate(const FilterContext& ctx,
                  ConcurrentBitset* out) const override {
    MANU_RETURN_NOT_OK(lhs_->Evaluate(ctx, out));
    ConcurrentBitset rhs_bits(out->capacity());
    MANU_RETURN_NOT_OK(rhs_->Evaluate(ctx, &rhs_bits));
    if (is_and_) {
      out->And(rhs_bits);
    } else {
      out->Or(rhs_bits);
    }
    return Status::OK();
  }

  double EstimateSelectivity(const FilterContext& ctx) const override {
    const double a = lhs_->EstimateSelectivity(ctx);
    const double b = rhs_->EstimateSelectivity(ctx);
    // Independence assumption, like a textbook optimizer.
    return is_and_ ? a * b : a + b - a * b;
  }

 private:
  bool is_and_;
  std::unique_ptr<FilterExpr> lhs_;
  std::unique_ptr<FilterExpr> rhs_;
};

// ---------------------------------------------------------------------------
// Tokenizer + recursive-descent parser
// ---------------------------------------------------------------------------

struct Token {
  enum Kind { kIdent, kNumber, kString, kOp, kLParen, kRParen, kAnd, kOr,
              kNot, kEnd } kind;
  std::string text;
  double number = 0;
  CompareOp op = CompareOp::kEq;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      if (c == '(') {
        out.push_back({Token::kLParen, "("});
        ++pos_;
      } else if (c == ')') {
        out.push_back({Token::kRParen, ")"});
        ++pos_;
      } else if (c == '&' && Peek(1) == '&') {
        out.push_back({Token::kAnd, "&&"});
        pos_ += 2;
      } else if (c == '|' && Peek(1) == '|') {
        out.push_back({Token::kOr, "||"});
        pos_ += 2;
      } else if (c == '!' && Peek(1) != '=') {
        out.push_back({Token::kNot, "!"});
        ++pos_;
      } else if (c == '\'' || c == '"') {
        MANU_ASSIGN_OR_RETURN(Token t, LexString(c));
        out.push_back(std::move(t));
      } else if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
                 c == '.') {
        MANU_ASSIGN_OR_RETURN(Token t, LexNumber());
        out.push_back(std::move(t));
      } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        out.push_back(LexIdent());
      } else {
        MANU_ASSIGN_OR_RETURN(Token t, LexOp());
        out.push_back(std::move(t));
      }
    }
    out.push_back({Token::kEnd, ""});
    return out;
  }

 private:
  char Peek(size_t ahead) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }

  Result<Token> LexString(char quote) {
    ++pos_;  // Skip opening quote.
    std::string value;
    while (pos_ < text_.size() && text_[pos_] != quote) {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          return Status::InvalidArgument("dangling escape in string literal");
        }
        const char esc = text_[pos_++];
        switch (esc) {
          case '\\': c = '\\'; break;
          case '\'': c = '\''; break;
          case '"':  c = '"';  break;
          case 'n':  c = '\n'; break;
          case 't':  c = '\t'; break;
          default:
            return Status::InvalidArgument(
                std::string("unknown escape in string literal: \\") + esc);
        }
      }
      value.push_back(c);
    }
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("unterminated string literal");
    }
    ++pos_;  // Skip closing quote.
    Token t;
    t.kind = Token::kString;
    t.text = std::move(value);
    return t;
  }

  Result<Token> LexNumber() {
    size_t end = pos_;
    if (text_[end] == '-') ++end;
    while (end < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[end])) ||
            text_[end] == '.' || text_[end] == 'e' || text_[end] == 'E' ||
            (end > pos_ && (text_[end] == '+' || text_[end] == '-') &&
             (text_[end - 1] == 'e' || text_[end - 1] == 'E')))) {
      ++end;
    }
    Token t;
    t.kind = Token::kNumber;
    t.text = text_.substr(pos_, end - pos_);
    try {
      t.number = std::stod(t.text);
    } catch (...) {
      return Status::InvalidArgument("bad number literal: " + t.text);
    }
    pos_ = end;
    return t;
  }

  Token LexIdent() {
    size_t end = pos_;
    while (end < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[end])) ||
            text_[end] == '_')) {
      ++end;
    }
    Token t;
    t.kind = Token::kIdent;
    t.text = text_.substr(pos_, end - pos_);
    pos_ = end;
    return t;
  }

  Result<Token> LexOp() {
    static const std::pair<const char*, CompareOp> kOps[] = {
        {"==", CompareOp::kEq}, {"!=", CompareOp::kNe},
        {"<=", CompareOp::kLe}, {">=", CompareOp::kGe},
        {"<", CompareOp::kLt},  {">", CompareOp::kGt},
    };
    for (const auto& [text, op] : kOps) {
      const size_t len = std::strlen(text);
      if (text_.compare(pos_, len, text) == 0) {
        Token t;
        t.kind = Token::kOp;
        t.text = text;
        t.op = op;
        pos_ += len;
        return t;
      }
    }
    return Status::InvalidArgument("unexpected character in filter: " +
                                   text_.substr(pos_, 1));
  }

  const std::string& text_;
  size_t pos_ = 0;
};

class Parser {
 public:
  Parser(std::vector<Token> tokens, const CollectionSchema& schema)
      : tokens_(std::move(tokens)), schema_(schema) {}

  Result<std::unique_ptr<FilterExpr>> Parse() {
    MANU_ASSIGN_OR_RETURN(std::unique_ptr<FilterExpr> expr, ParseOr());
    if (Current().kind != Token::kEnd) {
      return Status::InvalidArgument("trailing tokens in filter");
    }
    return expr;
  }

 private:
  const Token& Current() const { return tokens_[pos_]; }
  void Advance() { ++pos_; }

  Result<std::unique_ptr<FilterExpr>> ParseOr() {
    MANU_ASSIGN_OR_RETURN(std::unique_ptr<FilterExpr> lhs, ParseAnd());
    while (Current().kind == Token::kOr) {
      Advance();
      MANU_ASSIGN_OR_RETURN(std::unique_ptr<FilterExpr> rhs, ParseAnd());
      lhs = std::make_unique<BinaryExpr>(false, std::move(lhs),
                                         std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<FilterExpr>> ParseAnd() {
    MANU_ASSIGN_OR_RETURN(std::unique_ptr<FilterExpr> lhs, ParseTerm());
    while (Current().kind == Token::kAnd) {
      Advance();
      MANU_ASSIGN_OR_RETURN(std::unique_ptr<FilterExpr> rhs, ParseTerm());
      lhs = std::make_unique<BinaryExpr>(true, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<FilterExpr>> ParseTerm() {
    if (Current().kind == Token::kNot) {
      Advance();
      MANU_ASSIGN_OR_RETURN(std::unique_ptr<FilterExpr> child, ParseTerm());
      return std::unique_ptr<FilterExpr>(new NotExpr(std::move(child)));
    }
    if (Current().kind == Token::kLParen) {
      Advance();
      MANU_ASSIGN_OR_RETURN(std::unique_ptr<FilterExpr> expr, ParseOr());
      if (Current().kind != Token::kRParen) {
        return Status::InvalidArgument("missing ')' in filter");
      }
      Advance();
      return expr;
    }
    return ParseComparison();
  }

  Result<std::unique_ptr<FilterExpr>> ParseComparison() {
    if (Current().kind != Token::kIdent) {
      return Status::InvalidArgument("expected field name in filter");
    }
    const std::string field_name = Current().text;
    const FieldSchema* field = schema_.FieldByName(field_name);
    if (field == nullptr) {
      return Status::InvalidArgument("unknown filter field: " + field_name);
    }
    Advance();
    if (Current().kind != Token::kOp) {
      return Status::InvalidArgument("expected comparison operator");
    }
    const CompareOp op = Current().op;
    Advance();

    if (Current().kind == Token::kString) {
      if (field->type != DataType::kString) {
        return Status::InvalidArgument("string literal on numeric field " +
                                       field_name);
      }
      if (op != CompareOp::kEq && op != CompareOp::kNe) {
        return Status::InvalidArgument(
            "labels support only ==/!= comparisons");
      }
      std::string value = Current().text;
      Advance();
      return std::unique_ptr<FilterExpr>(new LabelCompareExpr(
          field->id, op == CompareOp::kNe, std::move(value)));
    }
    if (Current().kind == Token::kNumber) {
      if (field->type != DataType::kInt64 &&
          field->type != DataType::kFloat &&
          field->type != DataType::kDouble) {
        return Status::InvalidArgument("numeric literal on field " +
                                       field_name);
      }
      const double value = Current().number;
      Advance();
      return std::unique_ptr<FilterExpr>(
          new NumericCompareExpr(field->id, op, value));
    }
    return Status::InvalidArgument("expected literal in filter");
  }

  std::vector<Token> tokens_;
  const CollectionSchema& schema_;
  size_t pos_ = 0;
};

}  // namespace

Result<std::unique_ptr<FilterExpr>> FilterExpr::Parse(
    const std::string& text, const CollectionSchema& schema) {
  Lexer lexer(text);
  MANU_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens), schema);
  return parser.Parse();
}

}  // namespace manu
