// Expression engine: the eval() for when/wait condition strings.

#include "model/expr.hpp"

#include <gtest/gtest.h>

#include "model/dchare.hpp"

namespace {

using namespace cpy;

NameResolver env(Dict self_attrs, std::vector<std::string> params = {},
                 Args args = {}) {
  auto self = std::make_shared<Value>(Value::dict(std::move(self_attrs)));
  auto p = std::make_shared<std::vector<std::string>>(std::move(params));
  auto a = std::make_shared<Args>(std::move(args));
  return [self, p, a](const std::string& name) {
    return make_resolver(*self, *p, *a)(name);
  };
}

Value ev(const std::string& src, const NameResolver& names) {
  return Expr::compile(src).eval(names);
}

TEST(Expr, Literals) {
  auto e = env({});
  EXPECT_EQ(ev("42", e).as_int(), 42);
  EXPECT_DOUBLE_EQ(ev("2.5", e).as_real(), 2.5);
  EXPECT_DOUBLE_EQ(ev("1e3", e).as_real(), 1000.0);
  EXPECT_EQ(ev("'hello'", e).as_str(), "hello");
  EXPECT_TRUE(ev("True", e).as_bool());
  EXPECT_FALSE(ev("False", e).as_bool());
  EXPECT_TRUE(ev("None", e).is_none());
}

TEST(Expr, Arithmetic) {
  auto e = env({});
  EXPECT_EQ(ev("2 + 3 * 4", e).as_int(), 14);
  EXPECT_EQ(ev("(2 + 3) * 4", e).as_int(), 20);
  EXPECT_EQ(ev("-5 + 2", e).as_int(), -3);
  EXPECT_DOUBLE_EQ(ev("7 / 2", e).as_real(), 3.5);  // true division
  EXPECT_EQ(ev("7 % 3", e).as_int(), 1);
  EXPECT_EQ(ev("-7 % 3", e).as_int(), 2);  // Python-style modulo
  EXPECT_EQ(ev("'a' + 'b'", e).as_str(), "ab");
}

TEST(Expr, Comparisons) {
  auto e = env({});
  EXPECT_TRUE(ev("1 < 2", e).as_bool());
  EXPECT_TRUE(ev("2 <= 2", e).as_bool());
  EXPECT_FALSE(ev("3 == 4", e).as_bool());
  EXPECT_TRUE(ev("3 != 4", e).as_bool());
  EXPECT_TRUE(ev("'abc' == 'abc'", e).as_bool());
  EXPECT_TRUE(ev("5 >= 5 ", e).as_bool());
  EXPECT_TRUE(ev("2 == 2.0", e).as_bool());
}

TEST(Expr, BooleanLogicShortCircuits) {
  auto e = env({});
  EXPECT_TRUE(ev("True and True", e).as_bool());
  EXPECT_FALSE(ev("True and False", e).as_bool());
  EXPECT_TRUE(ev("False or True", e).as_bool());
  EXPECT_TRUE(ev("not False", e).as_bool());
  // Short circuit: the undefined name is never evaluated.
  EXPECT_FALSE(ev("False and undefined_name", e).truthy());
  EXPECT_TRUE(ev("True or undefined_name", e).truthy());
  // Python semantics: and/or return operands, not booleans.
  EXPECT_EQ(ev("0 or 7", e).as_int(), 7);
  EXPECT_EQ(ev("3 and 5", e).as_int(), 5);
}

TEST(Expr, SelfAttributeAccess) {
  auto e = env({{"x", Value(10)}, {"ready", Value(true)}});
  EXPECT_EQ(ev("self.x", e).as_int(), 10);
  EXPECT_TRUE(ev("self.ready", e).as_bool());
  EXPECT_TRUE(ev("self.x == 10", e).as_bool());
}

TEST(Expr, ArgumentNamesResolvePositionally) {
  auto e = env({{"x", Value(7)}}, {"a", "b"}, {Value(3), Value(4)});
  EXPECT_EQ(ev("a + b", e).as_int(), 7);
  // The paper's example: @when('x + z == self.x') with args (x, y, z).
  auto e2 = env({{"x", Value(9)}}, {"x", "y", "z"},
                {Value(4), Value(0), Value(5)});
  EXPECT_TRUE(ev("x + z == self.x", e2).as_bool());
}

TEST(Expr, ThePaperIterationCondition) {
  auto e = env({{"iter", Value(3)}}, {"iter", "data"},
               {Value(3), Value("payload")});
  EXPECT_TRUE(ev("self.iter == iter", e).as_bool());
  auto e2 = env({{"iter", Value(4)}}, {"iter", "data"},
                {Value(3), Value("payload")});
  EXPECT_FALSE(ev("self.iter == iter", e2).as_bool());
}

TEST(Expr, IndexingAndNesting) {
  auto e = env({{"xs", Value::list({Value(10), Value(20)})},
                {"cfg", Value::dict({{"k", Value(5)}})}});
  EXPECT_EQ(ev("self.xs[1]", e).as_int(), 20);
  EXPECT_EQ(ev("self.cfg.k", e).as_int(), 5);
  EXPECT_EQ(ev("self.cfg['k']", e).as_int(), 5);
  EXPECT_EQ(ev("self.xs[0] + self.xs[1]", e).as_int(), 30);
}

TEST(Expr, BuiltinFunctions) {
  auto e = env({{"neighbors", Value::list({Value(1), Value(2), Value(3)})},
                {"msg_count", Value(3)}});
  // The paper's stencil condition.
  EXPECT_TRUE(ev("self.msg_count == len(self.neighbors)", e).as_bool());
  EXPECT_EQ(ev("abs(-4)", e).as_int(), 4);
  EXPECT_EQ(ev("min(3, 5)", e).as_int(), 3);
  EXPECT_EQ(ev("max(3, 5)", e).as_int(), 5);
  EXPECT_EQ(ev("len('hello')", e).as_int(), 5);
}

TEST(Expr, ChainedComparisons) {
  auto e = env({{"n", Value(10)}}, {"x"}, {Value(5)});
  // The motivating bug: `0 <= x < n` must parse as a chain, not as
  // `(0 <= x) < n` (which compares a bool against an int).
  EXPECT_TRUE(ev("0 <= x < self.n", e).as_bool());
  EXPECT_FALSE(ev("0 <= x < 5", e).as_bool());
  EXPECT_FALSE(ev("6 <= x < self.n", e).as_bool());
  EXPECT_TRUE(ev("1 < 2 < 3 < 4", e).as_bool());
  EXPECT_FALSE(ev("1 < 2 < 2", e).as_bool());
  EXPECT_TRUE(ev("1 < 2 <= 2 == 2.0 != 3", e).as_bool());
  EXPECT_TRUE(ev("3 > 2 >= 2", e).as_bool());
  // A chain yields a bool, usable inside boolean logic.
  EXPECT_TRUE(ev("0 <= x < self.n and True", e).as_bool());
}

TEST(Expr, ChainedComparisonEvaluatesEachOperandOnce) {
  // Python semantics: `a < b < c` evaluates b once, unlike the naive
  // desugaring `a < b and b < c`.
  int lookups = 0;
  NameResolver counting = [&lookups](const std::string& name) -> Value {
    if (name == "mid") {
      ++lookups;
      return Value(5);
    }
    throw std::runtime_error("NameError: " + name);
  };
  EXPECT_TRUE(Expr::compile("1 < mid < 10").eval(counting).as_bool());
  EXPECT_EQ(lookups, 1);
}

TEST(Expr, ChainedComparisonShortCircuits) {
  auto e = env({});
  // The first failing link stops the chain: `boom` is never resolved.
  EXPECT_FALSE(ev("1 > 2 < boom", e).truthy());
  // And a passing prefix still reaches the bad operand.
  EXPECT_THROW(ev("1 < 2 < boom", e), std::runtime_error);
}

TEST(Expr, Truthiness) {
  auto e = env({{"empty", Value::list({})},
                {"items", Value::list({Value(1)})},
                {"none", Value::none()},
                {"table", Value::dict({})}});
  EXPECT_FALSE(ev("self.empty", e).truthy());
  EXPECT_TRUE(ev("self.items", e).truthy());
  EXPECT_FALSE(ev("self.none", e).truthy());
  EXPECT_FALSE(ev("self.table", e).truthy());
  EXPECT_FALSE(ev("''", e).truthy());
  EXPECT_TRUE(ev("'x'", e).truthy());
  EXPECT_FALSE(ev("0", e).truthy());
  EXPECT_FALSE(ev("0.0", e).truthy());
  EXPECT_TRUE(ev("not self.empty", e).as_bool());
}

TEST(Expr, TrailingInputIsAPositionedSyntaxError) {
  // `1 2` stops the parser after the first literal; the error must say
  // so and point at the offending token, not silently evaluate `1`.
  try {
    (void)Expr::compile("1 2");
    FAIL() << "expected syntax error";
  } catch (const std::runtime_error& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("trailing input"), std::string::npos) << msg;
    EXPECT_NE(msg.find("position 2"), std::string::npos) << msg;
  }
  // Same for a half-written chain link.
  EXPECT_THROW((void)Expr::compile("1 < 2 <"), std::runtime_error);
  EXPECT_THROW((void)Expr::compile("x < y z"), std::runtime_error);
}

TEST(Expr, DependencyExtraction) {
  const Expr e = Expr::compile("self.a + self.b == x");
  ASSERT_NE(e.deps(), nullptr);
  EXPECT_TRUE(e.deps()->known);
  ASSERT_EQ(e.deps()->attrs.size(), 2u);
  EXPECT_EQ(e.deps()->attrs[0], cx::attr_key("a"));
  EXPECT_EQ(e.deps()->attrs[1], cx::attr_key("b"));

  // Duplicate reads collapse to one dependency.
  const Expr dup = Expr::compile("self.k < 3 or self.k > 9");
  EXPECT_EQ(dup.deps()->attrs.size(), 1u);

  // Nested access depends only on the root attribute.
  const Expr nested = Expr::compile("self.cfg.k == 1");
  EXPECT_TRUE(nested.deps()->known);
  ASSERT_EQ(nested.deps()->attrs.size(), 1u);
  EXPECT_EQ(nested.deps()->attrs[0], cx::attr_key("cfg"));

  // Bare `self` (computed access) defeats static analysis: not known.
  EXPECT_FALSE(Expr::compile("len(self.xs) == self['n']").deps()->known);
  // No self reads at all: known, empty set (never needs a re-test).
  const Expr pure = Expr::compile("a + b == 7");
  EXPECT_TRUE(pure.deps()->known);
  EXPECT_TRUE(pure.deps()->attrs.empty());

  // Chained comparisons feed extraction like any other node.
  const Expr chain = Expr::compile("self.lo <= x < self.hi");
  EXPECT_TRUE(chain.deps()->known);
  EXPECT_EQ(chain.deps()->attrs.size(), 2u);
}

// A chare's conditions read its resolved attribute slots first and fall
// back to the dict for names it has not resolved (state that arrived by
// migration or restore has no slots at all).
TEST(Expr, SelfAttrReadsChareSlotsThenDict) {
  std::string cls = "ExprSlots";
  DClass def(cls);
  Value state = Value::dict({{"step", Value(1)}, {"limit", Value(3)}});
  const auto bytes = pup::pack_args(cls, state);
  DChare c;  // as after migration: state only through pup
  pup::Unpacker u(bytes.data(), bytes.size());
  c.pup(u);
  const Expr e = Expr::compile("self.step < self.limit");
  EvalCtx ctx;
  ctx.self = &c.attrs();
  ctx.chare = &c;
  EXPECT_EQ(c.slot_value(cx::attr_key("step"), "step"), nullptr);
  EXPECT_TRUE(e.test(ctx));  // both from the dict

  c["step"] = Value(5);  // binds a slot, writes through it
  const Value* slot = c.slot_value(cx::attr_key("step"), "step");
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->as_int(), 5);
  EXPECT_EQ(c.attrs().item(Value("step")).as_int(), 5);  // one storage
  EXPECT_EQ(c.slot_value(cx::attr_key("limit"), "limit"), nullptr);
  EXPECT_FALSE(e.test(ctx));  // step from the slot, limit from the dict
  c["limit"] = Value(9);
  EXPECT_TRUE(e.test(ctx));
  // A name whose key matches but whose spelling differs is not a hit.
  EXPECT_EQ(c.slot_value(cx::attr_key("step"), "stepx"), nullptr);
  EXPECT_THROW((void)Expr::compile("self.missing").test(ctx),
               std::out_of_range);
}

TEST(Expr, CompileCacheSharesAsts) {
  const std::string src = "self.cache_probe_attr == 123";
  const std::size_t before = Expr::compile_cache_size();
  const Expr& first = Expr::compile_cached(src);
  EXPECT_EQ(Expr::compile_cache_size(), before + 1);
  const Expr& second = Expr::compile_cached(src);
  EXPECT_EQ(&first, &second);  // same cached entry, not a re-parse
  EXPECT_EQ(Expr::compile_cache_size(), before + 1);
  // The shared entry carries the shared dependency set.
  EXPECT_EQ(first.deps(), second.deps());
  EXPECT_TRUE(first.deps()->known);
}

TEST(Expr, SyntaxErrorsCarryPosition) {
  EXPECT_THROW((void)Expr::compile("1 +"), std::runtime_error);
  EXPECT_THROW((void)Expr::compile("self."), std::runtime_error);
  EXPECT_THROW((void)Expr::compile("a = b"), std::runtime_error);
  EXPECT_THROW((void)Expr::compile("(1 + 2"), std::runtime_error);
  EXPECT_THROW((void)Expr::compile("'unterminated"), std::runtime_error);
  EXPECT_THROW((void)Expr::compile("1 2"), std::runtime_error);
}

TEST(Expr, UnknownNameThrowsAtEval) {
  auto e = env({});
  EXPECT_THROW(ev("nope", e), std::runtime_error);
  EXPECT_THROW(ev("self.missing", e), std::out_of_range);
}

TEST(Expr, CompiledOnceEvaluatedManyTimes) {
  Expr expr = Expr::compile("self.count >= 3");
  for (int count = 0; count < 6; ++count) {
    auto e = env({{"count", Value(count)}});
    EXPECT_EQ(expr.test(e), count >= 3);
  }
}

}  // namespace
