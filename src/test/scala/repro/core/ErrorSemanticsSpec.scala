package repro.core

import repro.core.model.{RumbleException, StaticException}

/** Error semantics: static errors raised before execution, dynamic errors
  * (type errors, incompatible comparisons, division by zero) at runtime. */
class ErrorSemanticsSpec extends RumbleSpec {

  private def staticError(q: String): Unit =
    assertThrows[StaticException](rumbleLocal.compile(q))

  test("undeclared variable is a static error (XPST0008)") { staticError("$nope") }
  test("undeclared variable inside FLWOR") { staticError("for $x in 1 return $y") }
  test("variable not visible before its binding clause") {
    staticError("for $x in $y let $y := 1 return $x")
  }
  test("$$ outside a predicate is a static error") { staticError("$$ + 1") }
  test("$$ legal inside a predicate") {
    assert(evalLocal("(1, 2)[$$ eq 2]") == "2")
  }
  test("unknown function is a static error (XPST0017)") {
    val e = intercept[RumbleException](rumbleLocal.run("frobnicate(1)"))
    assert(e.code == "XPST0017")
  }
  test("count() arity is checked") {
    val e = intercept[RumbleException](rumbleLocal.run("count(1, 2)"))
    assert(e.code == "XPST0017")
  }

  Seq("if (true) then 1 else foo()", "count(1, 2)", "json-file()", "subsequence(1)",
      "substring(\"a\")").foreach { q =>
    test(s"$q fails to compile with XPST0017 before any Spark job") {
      val work = sparkWork {
        val e = intercept[StaticException](rumble.compile(q))
        assert(e.code == "XPST0017", e.getMessage)
      }
      assert(work.jobs == 0)
    }
  }

  test("integer() of a non-numeric string is FORG0001") {
    expectError("integer(\"abc\")", "FORG0001")(rumbleLocal.run)
    assert(evalLocal("integer(\" 12 \")") == "12")
    assert(evalLocal("integer(9007199254740993)") == "9007199254740993")
    // double() and number() keep returning NaN, like JSONiq's number()
    assert(rumbleLocal.run("double(\"abc\")").map(_.numericDouble.isNaN) == List(true))
    assert(rumbleLocal.run("number(\"abc\")").map(_.numericDouble.isNaN) == List(true))
  }

  test("grouping variable must be in scope") {
    staticError("for $x in 1 group by $zzz return 1")
  }

  test("arithmetic on non-numbers (XPTY0004)") {
    expectError("1 + \"a\"", "XPTY0004")(rumbleLocal.run)
    expectError("\"a\" * 2", "XPTY0004")(rumbleLocal.run)
    expectError("null + 1", "XPTY0004")(rumbleLocal.run)
  }

  test("division by zero (FOAR0001)") {
    expectError("1 div 0", "FOAR0001")(rumbleLocal.run)
    expectError("1 idiv 0", "FOAR0001")(rumbleLocal.run)
    expectError("1 mod 0", "FOAR0001")(rumbleLocal.run)
  }

  test("incomparable types in ordering comparisons (XPTY0004)") {
    expectError("1 lt \"a\"", "XPTY0004")(rumbleLocal.run)
    expectError("true gt 1", "XPTY0004")(rumbleLocal.run)
    expectError("1 eq \"1\"", "XPTY0004")(rumbleLocal.run)
  }

  test("comparison on structured items errors") {
    expectError("[1] eq [1]", "XPTY0004")(rumbleLocal.run)
    expectError("{} eq {}", "XPTY0004")(rumbleLocal.run)
  }

  test("value comparison requires singleton operands") {
    expectError("(1, 2) eq 1", "XPTY0004")(rumbleLocal.run)
  }

  test("EBV of a multi-atomic sequence errors (FORG0006)") {
    expectError("if ((1, 2)) then 1 else 2", "FORG0006")(rumbleLocal.run)
  }

  test("order by with mixed string/number keys errors (XPTY0004, §4.8)") {
    expectError("for $x in (1, \"a\") order by $x return $x", "XPTY0004")(rumbleLocal.run)
  }

  test("order by tolerates empty and null alongside one value type (§4.8)") {
    assert(evalLocal("for $x in (2, null, 1) order by $x return $x") == "null, 1, 2")
  }

  test("order by rejects array-valued sort keys") {
    expectError("for $x in ([1], [2]) order by $x return 1", "XPTY0004")(rumbleLocal.run)
  }

  test("order by rejects multi-item sort keys") {
    expectError("for $x in (1, 2) order by (1, 2) return $x", "XPTY0004")(rumbleLocal.run)
  }

  test("group by rejects non-atomic keys") {
    expectError("for $x in ([1], [2]) group by $k := $x return 1", "XPTY0004")(rumbleLocal.run)
  }

  test("'to' requires integers") {
    expectError("1.5 to 3", "XPTY0004")(rumbleLocal.run)
  }

  test("string() on objects errors") {
    expectError("string({})", "XPTY0004")(rumbleLocal.run)
  }

  test("size() on non-arrays errors") {
    expectError("size(3)", "XPTY0004")(rumbleLocal.run)
  }

  test("json-file on a missing local file errors") {
    assertThrows[Exception](rumbleLocal.run("json-file(\"/nonexistent/file.json\")"))
  }
}
