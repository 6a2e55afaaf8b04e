package repro.perfbench

import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}
import com.fasterxml.jackson.databind.node.TextNode
import scala.jdk.CollectionConverters._
import scala.util.hashing.MurmurHash3

/** Canonical JSON text, computed with Jackson so that checks do not lean
  * on the engine's own parser or writer: object keys sorted, numbers in
  * plain decimal without trailing zeros, no whitespace. Two JSON values
  * are equal exactly when their canonical texts are. */
object Canon {

  private val mapper = new ObjectMapper()

  def parse(text: String): JsonNode = mapper.readTree(text)

  def apply(text: String): String = of(parse(text))

  def of(node: JsonNode): String = {
    val sb = new StringBuilder
    write(sb, node)
    sb.toString
  }

  private def write(sb: StringBuilder, n: JsonNode): Unit =
    if (n.isObject) {
      sb.append('{')
      n.fieldNames.asScala.toVector.sorted.zipWithIndex.foreach { case (k, i) =>
        if (i > 0) sb.append(',')
        sb.append(TextNode.valueOf(k).toString).append(':')
        write(sb, n.get(k))
      }
      sb.append('}')
    } else if (n.isArray) {
      sb.append('[')
      n.elements.asScala.zipWithIndex.foreach { case (e, i) =>
        if (i > 0) sb.append(',')
        write(sb, e)
      }
      sb.append(']')
    } else if (n.isIntegralNumber) sb.append(n.bigIntegerValue)
    else if (n.isNumber) sb.append(n.decimalValue.stripTrailingZeros.toPlainString)
    else sb.append(n.toString) // strings (quoted, escaped), booleans, null

  /** 64-bit hash of a canonical text. A multiset of values hashes to the
    * sum of its members' hashes, which ignores order but not multiplicity. */
  def hash(canon: String): Long =
    (MurmurHash3.stringHash(canon, 0x3c074a61).toLong << 32) |
      (MurmurHash3.stringHash(canon, 0x1b873593) & 0xffffffffL)
}
