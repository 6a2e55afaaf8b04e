package repro.perfbench

import com.fasterxml.jackson.databind.node.ObjectNode
import java.io.File
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, StandardCopyOption}
import org.apache.spark.sql.SparkSession
import repro.core.Rumble
import repro.core.json.JsonWriter
import scala.jdk.CollectionConverters._

/** Shows that the result checks work: on every workload the engine's true
  * result passes, and each planted wrong result is rejected. Returns the
  * process exit code, 0 when every check behaves. */
object SelfTest {

  private val Objects = 20_000L

  def run(spark: SparkSession, workDir: String): Int = {
    val rumble = new Rumble(spark)
    val problems = Workloads.all.flatMap { w =>
      val dir  = s"$workDir/selftest/${w.name}"
      val path = w.generate(spark, s"$dir/input", Objects, seed = 1)
      val ref  = w.reference(spark, path)
      val out =
        if (w.writes) { rumble.writeJsonLines(w.query(path), s"$dir/out"); Written(s"$dir/out") }
        else Items(rumble.run(w.query(path)).map(JsonWriter.write).toVector)
      val genuine = w.check(spark, ref, out)
      println(s"${w.name}: true result -> ${genuine.getOrElse("accepted")}")
      val planted = plants(out, dir).map { case (what, bad) =>
        val verdict = w.check(spark, ref, bad)
        println(s"${w.name}: planted $what -> ${verdict.getOrElse("ACCEPTED")}")
        (what, verdict)
      }
      genuine.map(e => s"${w.name}: true result rejected: $e").toSeq ++
        planted.collect { case (what, None) => s"${w.name}: planted $what was not caught" }
    }
    problems.foreach(p => println(s"FAIL $p"))
    println(if (problems.isEmpty) "self-test passed" else s"self-test failed: ${problems.size} problems")
    if (problems.isEmpty) 0 else 1
  }

  /** Change the first integer field of a JSON object by one, or else
    * append to its first string field. */
  private def corrupt(line: String): String = {
    val o      = Canon.parse(line).asInstanceOf[ObjectNode]
    val fields = o.fieldNames.asScala.toVector
    fields.find(f => o.get(f).isIntegralNumber) match {
      case Some(f) => o.put(f, o.get(f).longValue + 1)
      case None    => fields.find(f => o.get(f).isTextual).foreach(f => o.put(f, o.get(f).textValue + "x"))
    }
    o.toString
  }

  /** Wrong variants of a true output, each with a description. */
  private def plants(out: Output, dir: String): Seq[(String, Output)] = out match {
    case Items(ls) => Seq(
      "dropped item"    -> Items(ls.init),
      "duplicated item" -> Items(ls :+ ls.head),
      "changed value"   -> Items(corrupt(ls.head) +: ls.tail))
    case Written(d) =>
      def variant(name: String)(edit: Vector[File] => Unit): (String, Output) = {
        val copy = new File(s"$dir/planted-${name.replace(' ', '-')}")
        copy.mkdirs()
        val parts = new File(d).listFiles().filter(_.getName.startsWith("part-")).sortBy(_.getName)
          .map(f => Files.copy(f.toPath, new File(copy, f.getName).toPath, StandardCopyOption.REPLACE_EXISTING).toFile)
          .toVector
        edit(parts.filter(_.length > 0))
        name -> Written(copy.getPath)
      }
      def rewrite(f: File)(g: Vector[String] => Vector[String]): Unit =
        Files.write(f.toPath, g(Files.readAllLines(f.toPath, UTF_8).asScala.toVector).asJava, UTF_8)
      Seq(
        variant("dropped line")(ps => rewrite(ps.head)(_.init)),
        variant("changed value")(ps => rewrite(ps.head)(ls => corrupt(ls.head) +: ls.tail)),
        variant("reversed part")(ps => rewrite(ps.head)(_.reverse)),
        // the second half of a part's lines stays in it; the first half moves
        // to a new part that sorts after it
        variant("swapped halves") { ps =>
          val lines           = Files.readAllLines(ps.head.toPath, UTF_8).asScala.toVector
          val (first, second) = lines.splitAt(lines.size / 2)
          Files.write(ps.head.toPath, second.asJava, UTF_8)
          Files.write(new File(ps.head.getPath + "b").toPath, first.asJava, UTF_8)
        })
  }
}
