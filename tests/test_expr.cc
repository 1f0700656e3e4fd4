#include <gtest/gtest.h>

#include "core/expr.h"

namespace manu {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = CollectionSchema("products");
    FieldSchema pk;
    pk.name = "id";
    pk.type = DataType::kInt64;
    pk.is_primary = true;
    ASSERT_TRUE(schema_.AddField(pk).ok());
    FieldSchema price;
    price.name = "price";
    price.type = DataType::kDouble;
    ASSERT_TRUE(schema_.AddField(price).ok());
    FieldSchema count;
    count.name = "count";
    count.type = DataType::kInt64;
    ASSERT_TRUE(schema_.AddField(count).ok());
    FieldSchema label;
    label.name = "label";
    label.type = DataType::kString;
    ASSERT_TRUE(schema_.AddField(label).ok());

    // Five rows: price 10,20,30,40,50; count 0,1,2,3,4; label a,b,a,b,a.
    price_col_ = FieldColumn::MakeDouble(schema_.FieldByName("price")->id,
                                         {10, 20, 30, 40, 50});
    count_col_ = FieldColumn::MakeInt64(schema_.FieldByName("count")->id,
                                        {0, 1, 2, 3, 4});
    label_col_ = FieldColumn::MakeString(schema_.FieldByName("label")->id,
                                         {"a", "b", "a", "b", "a"});
    ctx_.num_rows = 5;
    ctx_.column = [this](FieldId id) -> const FieldColumn* {
      if (id == price_col_.field_id) return &price_col_;
      if (id == count_col_.field_id) return &count_col_;
      if (id == label_col_.field_id) return &label_col_;
      return nullptr;
    };
  }

  /// Evaluates `text` and returns the matching row set as a string "01011".
  std::string Eval(const std::string& text) {
    auto expr = FilterExpr::Parse(text, schema_);
    EXPECT_TRUE(expr.ok()) << text << ": " << expr.status().ToString();
    if (!expr.ok()) return "";
    ConcurrentBitset bits(5);
    Status st = expr.value()->Evaluate(ctx_, &bits);
    EXPECT_TRUE(st.ok()) << st.ToString();
    std::string out;
    for (size_t i = 0; i < 5; ++i) out += bits.Test(i) ? '1' : '0';
    return out;
  }

  CollectionSchema schema_;
  FieldColumn price_col_, count_col_, label_col_;
  FilterContext ctx_;
};

TEST_F(ExprTest, Comparisons) {
  EXPECT_EQ(Eval("price > 30"), "00011");
  EXPECT_EQ(Eval("price >= 30"), "00111");
  EXPECT_EQ(Eval("price < 30"), "11000");
  EXPECT_EQ(Eval("price <= 30"), "11100");
  EXPECT_EQ(Eval("price == 30"), "00100");
  EXPECT_EQ(Eval("price != 30"), "11011");
}

TEST_F(ExprTest, IntFieldAndNegativeNumbers) {
  EXPECT_EQ(Eval("count >= 3"), "00011");
  EXPECT_EQ(Eval("count > -1"), "11111");
}

TEST_F(ExprTest, LabelEquality) {
  EXPECT_EQ(Eval("label == 'a'"), "10101");
  EXPECT_EQ(Eval("label != 'a'"), "01010");
  EXPECT_EQ(Eval("label == \"b\""), "01010");
  EXPECT_EQ(Eval("label == 'zzz'"), "00000");
}

TEST_F(ExprTest, BooleanCombinators) {
  EXPECT_EQ(Eval("price > 10 && price < 50"), "01110");
  EXPECT_EQ(Eval("price < 20 || price > 40"), "10001");
  EXPECT_EQ(Eval("!(price == 30)"), "11011");
  EXPECT_EQ(Eval("label == 'a' && price >= 30"), "00101");
  // Precedence: && binds tighter than ||.
  EXPECT_EQ(Eval("price == 10 || price == 30 && label == 'a'"), "10100");
  // Parentheses override.
  EXPECT_EQ(Eval("(price == 10 || price == 30) && label == 'a'"), "10100");
  EXPECT_EQ(Eval("(price == 10 || price == 20) && label == 'b'"), "01000");
}

TEST_F(ExprTest, WhitespaceInsensitive) {
  EXPECT_EQ(Eval("  price>30&&label=='b'  "), "00010");
}

TEST_F(ExprTest, ParseErrors) {
  const char* bad[] = {
      "",                      // Empty.
      "price >",               // Missing literal.
      "price > 'text'",        // String on numeric field.
      "label > 'a'",           // Ordering on label.
      "label == 5",            // Number on string field.
      "unknown == 1",          // Unknown field.
      "price == 1 &&",         // Dangling operator.
      "(price == 1",           // Unbalanced paren.
      "price == 1 extra",      // Trailing tokens.
      "price ~ 3",             // Bad operator.
      "label == 'unterminated", // Unterminated string.
  };
  for (const char* text : bad) {
    EXPECT_FALSE(FilterExpr::Parse(text, schema_).ok()) << text;
  }
}

TEST_F(ExprTest, SelectivityEstimates) {
  // With a scalar index present, estimates should be near-exact.
  ScalarSortedIndex price_index;
  ASSERT_TRUE(price_index.Build(price_col_).ok());
  ctx_.scalar_index = [&](FieldId id) -> const ScalarSortedIndex* {
    return id == price_col_.field_id ? &price_index : nullptr;
  };
  auto expr = FilterExpr::Parse("price > 30", schema_);
  ASSERT_TRUE(expr.ok());
  EXPECT_NEAR(expr.value()->EstimateSelectivity(ctx_), 0.4, 1e-9);

  auto and_expr = FilterExpr::Parse("price > 30 && price > 30", schema_);
  ASSERT_TRUE(and_expr.ok());
  // Independence assumption: 0.4 * 0.4.
  EXPECT_NEAR(and_expr.value()->EstimateSelectivity(ctx_), 0.16, 1e-9);

  auto not_expr = FilterExpr::Parse("!(price > 30)", schema_);
  ASSERT_TRUE(not_expr.ok());
  EXPECT_NEAR(not_expr.value()->EstimateSelectivity(ctx_), 0.6, 1e-9);
}

TEST_F(ExprTest, EvaluateUsesIndexesWhenAvailable) {
  ScalarSortedIndex price_index;
  ASSERT_TRUE(price_index.Build(price_col_).ok());
  LabelBitmapIndex label_bitmap;
  ASSERT_TRUE(label_bitmap.Build(label_col_).ok());
  ctx_.scalar_index = [&](FieldId id) -> const ScalarSortedIndex* {
    return id == price_col_.field_id ? &price_index : nullptr;
  };
  ctx_.label_bitmap = [&](FieldId id) -> const LabelBitmapIndex* {
    return id == label_col_.field_id ? &label_bitmap : nullptr;
  };
  EXPECT_EQ(Eval("price < 30 && label == 'a'"), "10000");
  EXPECT_EQ(Eval("price != 20"), "10111");
  EXPECT_EQ(Eval("label != 'b'"), "10101");
}

TEST_F(ExprTest, NestedParensAndNotChains) {
  EXPECT_EQ(Eval("((price > 30))"), "00011");
  EXPECT_EQ(Eval("(((label == 'a') && (price >= 30)))"), "00101");
  EXPECT_EQ(Eval("!(!(price == 30))"), "00100");
  EXPECT_EQ(Eval("!!(price == 30)"), "00100");
  EXPECT_EQ(Eval("!(price < 20 || price > 40)"), "01110");
  EXPECT_EQ(Eval("!(label == 'a') || !(price > 10)"), "11010");
  // De Morgan sanity: !(A && B) == !A || !B.
  EXPECT_EQ(Eval("!(label == 'a' && price >= 30)"),
            Eval("!(label == 'a') || !(price >= 30)"));
}

TEST_F(ExprTest, MixedPrecedenceChains) {
  // a || b && c || d groups as a || (b && c) || d.
  EXPECT_EQ(Eval("price == 10 || count >= 2 && label == 'b' || price == 50"),
            "10011");
  // && chains left-to-right inside one or-term.
  EXPECT_EQ(Eval("price > 10 && price < 50 && label == 'a'"), "00100");
  // NOT binds tighter than &&.
  EXPECT_EQ(Eval("!(price == 10) && label == 'a'"), "00101");
  EXPECT_EQ(Eval("(price == 10 || count >= 2) && (label == 'b' || price == 50)"),
            "00011");
}

TEST_F(ExprTest, StringEscapes) {
  label_col_ = FieldColumn::MakeString(
      label_col_.field_id, {"it's", "a\"b", "back\\slash", "line\nbreak",
                            "tab\there"});
  EXPECT_EQ(Eval("label == 'it\\'s'"), "10000");
  EXPECT_EQ(Eval("label == \"it's\""), "10000");
  EXPECT_EQ(Eval("label == 'a\\\"b'"), "01000");
  EXPECT_EQ(Eval("label == \"a\\\"b\""), "01000");
  EXPECT_EQ(Eval("label == 'back\\\\slash'"), "00100");
  EXPECT_EQ(Eval("label == 'line\\nbreak'"), "00010");
  EXPECT_EQ(Eval("label == 'tab\\there'"), "00001");
  EXPECT_EQ(Eval("label != 'it\\'s'"), "01111");
}

TEST_F(ExprTest, EscapeErrors) {
  EXPECT_FALSE(FilterExpr::Parse("label == 'dangling\\", schema_).ok());
  EXPECT_FALSE(FilterExpr::Parse("label == 'bad\\qescape'", schema_).ok());
}

TEST_F(ExprTest, MissingColumnReportsNotFound) {
  FilterContext empty;
  empty.num_rows = 5;
  auto expr = FilterExpr::Parse("price > 1", schema_);
  ASSERT_TRUE(expr.ok());
  ConcurrentBitset bits(5);
  EXPECT_TRUE(expr.value()->Evaluate(empty, &bits).IsNotFound());
}

}  // namespace
}  // namespace manu
