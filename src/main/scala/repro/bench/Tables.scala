package repro.bench

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.core.{BiBlockEngine, BlockLoading, LblTrainer, LoadLogCollector}
import repro.disk.DiskSim
import repro.engine._
import repro.graph.{Datasets, GraphSpec}
import repro.walk.WalkTask

/** Shared harness behind the `bench/` suites and the `jobs/` entry point: one
  * runner per evaluation table, with deterministic, memoized engine runs and
  * paper reference values printed side by side.
  */
object Tables {

  // ---- workloads -------------------------------------------------------

  /** RWNV at lite scale: 2 walks/vertex (paper: 10); length 80 on the real
    * analogs (paper's length) and 40 on the synthetic family (runtime; the
    * σ_W bridge accounts for both reductions).
    */
  def task(spec: GraphSpec, kind: String)(implicit spark: SparkSession): WalkTask = {
    val g = Datasets.csr(spec)
    kind match {
      case "RWNV" =>
        // Paper length 80 is kept: the dense-graph crossover of Table 6
        // hinges on supersteps (= length) driving GraSorw's fixed block
        // sweeps while σ_W normalizes the baselines' per-step costs.
        WalkTask.rwnv(g, walksPerVertex = 2, len = 80)
      case "PRNV"         => WalkTask.prnv(g)
      case "DeepWalk"     => WalkTask.deepwalk(g)
      case other          => throw new IllegalArgumentException(s"unknown task kind $other")
    }
  }

  // ---- memoized engine runs -------------------------------------------

  private val runCache = mutable.Map.empty[(String, String, String, String), DiskSim.Metrics]
  private val lblCache = mutable.Map.empty[(String, String, String, String), BlockLoading.Learned]

  /** Train the learning-based loading model (§5.2.2 protocol: one
    * profiling run under full load, one under on-demand load, then
    * per-block regression) for the engine `profiled` builds from a policy
    * and a log. `engineKind` keeps each engine's policy apart in the cache.
    */
  private def lblPolicy(spec: GraphSpec, partition: String, taskKind: String, engineKind: String)
                       (profiled: (BlockLoading.Policy, LoadLogCollector) => WalkEngine)
                       (implicit spark: SparkSession): BlockLoading.Learned =
    lblCache.getOrElseUpdate((spec.name, partition, taskKind, engineKind), {
      val bg = Datasets.blocked(spec, partition)
      val t = task(spec, taskKind)
      LblTrainer.learn(bg.nBlocks)((policy, log) => profiled(policy, log).run(bg, t, Scale.sim(spec, bg, t)))
    })

  private def engineFor(kind: String, spec: GraphSpec, partition: String, taskKind: String)
                       (implicit spark: SparkSession): WalkEngine = kind match {
    case "PB"             => new PlainBucketEngine
    case "Bi-Block"       => new BiBlockEngine(BlockLoading.AlwaysFull)
    case "SOGW"           => new SogwEngine(staticCache = false)
    case "SGSC"           => new SogwEngine(staticCache = true)
    case "GraSorw"        =>
      new BiBlockEngine(lblPolicy(spec, partition, taskKind, kind)(new BiBlockEngine(_, _)))
    case "FO-GraSorw"     => new FirstOrderEngine(new Scheduling.Iteration,
      lblPolicy(spec, partition, taskKind, kind)(new FirstOrderEngine(new Scheduling.Iteration, _, _)))
    case s if s.startsWith("FO:") => new FirstOrderEngine(Scheduling.byName(s.drop(3)), BlockLoading.AlwaysFull)
    case other            => throw new IllegalArgumentException(s"unknown engine kind $other")
  }

  /** Run (memoized) one engine over one dataset/partition/task. */
  def run(spec: GraphSpec, partition: String, taskKind: String, engineKind: String)
         (implicit spark: SparkSession): DiskSim.Metrics =
    runCache.getOrElseUpdate((spec.name, partition, taskKind, engineKind), {
      val bg = Datasets.blocked(spec, partition)
      val t = task(spec, taskKind)
      val sim = Scale.sim(spec, bg, t)
      val m = engineFor(engineKind, spec, partition, taskKind).run(bg, t, sim)
      Console.err.println(f"[bench] ${spec.name}%-10s $partition%-8s $taskKind%-12s $engineKind%-14s " +
        f"wall=${m.wallTimeSec}%12.1f blockIO=${m.blockIOCount}%8d vertexIO=${m.vertexIOCount}%10d")
      m
    })

  // ---- formatting ------------------------------------------------------

  def fmt(x: Double): String =
    if (x.isNaN) "-"
    else if (x == 0) "0"
    else if (math.abs(x) >= 1000) f"$x%.0f"
    else if (math.abs(x) >= 10) f"$x%.1f"
    else f"$x%.2f"

  def grid(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    (line(header) +: ("-" * (widths.sum + 2 * (widths.size - 1))) +: rows.map(line)).mkString("\n")
  }

  // ---- Table 2: dataset statistics ------------------------------------

  final case class T2Row(dataset: String, nV: Int, nE: Long, csrBytes: Long,
                         nBlocks: Int, edgeCutPct: Double)

  def table2Rows()(implicit spark: SparkSession): Seq[T2Row] =
    Datasets.real.map { spec =>
      val bg = Datasets.blocked(spec, "seq")
      T2Row(spec.name, bg.g.nV, bg.g.nEdgesUndirected, bg.totalBytes, bg.nBlocks,
            bg.edgeCut * 100)
    }

  def renderTable2(rows: Seq[T2Row]): String = {
    val header = Seq("Graph", "|V|", "|E|", "CSR bytes", "#Blocks", "Edge-Cut%",
                     "paper |V|", "paper |E|", "paper cut%")
    grid(header, rows.map { r =>
      val p = PaperNumbers.table2(r.dataset)
      Seq(r.dataset, r.nV.toString, r.nE.toString, r.csrBytes.toString, r.nBlocks.toString,
          fmt(r.edgeCutPct), fmt(p._1), fmt(p._2), fmt(p._5))
    })
  }

  // ---- Table 3: PB vs Bi-Block ----------------------------------------

  final case class T3Row(dataset: String, taskKind: String, engine: String, m: DiskSim.Metrics)

  def table3Rows()(implicit spark: SparkSession): Seq[T3Row] =
    for {
      spec <- Datasets.real
      taskKind <- Seq("RWNV", "PRNV")
      engine <- Seq("PB", "Bi-Block")
    } yield T3Row(spec.name, taskKind, engine, run(spec, "seq", taskKind, engine))

  def renderTable3(rows: Seq[T3Row]): String = {
    val header = Seq("Graph", "Task", "Engine", "Wall(s)", "Exec(s)", "BlockIO#", "BlockIO(s)",
                     "p.Wall", "p.Exec", "p.BIO#", "p.BIO(s)")
    grid(header, rows.map { r =>
      val p = PaperNumbers.table3((r.dataset, r.taskKind, r.engine))
      Seq(r.dataset, r.taskKind, r.engine,
          fmt(r.m.wallTimeSec), fmt(r.m.execTimeSec),
          r.m.blockIOCount.toString, fmt(r.m.blockIOTimeSec),
          fmt(p._1), fmt(p._2), p._3.toString, fmt(p._4))
    })
  }

  // ---- Table 4: loading methods x partitions (RWNV) -------------------

  final case class T4Row(dataset: String, partition: String, loader: String, m: DiskSim.Metrics)

  def table4Rows()(implicit spark: SparkSession): Seq[T4Row] =
    for {
      spec <- Seq(Datasets.tw, Datasets.uk)
      partition <- Seq("seq", "locality")
      loader <- Seq("Full", "Learned")
    } yield {
      val engine = if (loader == "Full") "Bi-Block" else "GraSorw"
      T4Row(spec.name, if (partition == "seq") "Seq" else "METIS", loader,
            run(spec, partition, "RWNV", engine))
    }

  def renderTable4(rows: Seq[T4Row]): String = {
    val header = Seq("Graph", "Partition", "Loader", "Wall(s)", "Exec(s)", "BlockIO(s)", "BlockIO#",
                     "OD-IO(s)", "OD-IO#", "p.Wall", "p.BIO#", "p.OD#")
    grid(header, rows.map { r =>
      val p = PaperNumbers.table4((r.dataset, r.partition, r.loader))
      Seq(r.dataset, r.partition, r.loader,
          fmt(r.m.wallTimeSec), fmt(r.m.execTimeSec), fmt(r.m.blockIOTimeSec),
          r.m.blockIOCount.toString, fmt(r.m.vertexIOTimeSec), r.m.vertexIOCount.toString,
          fmt(p._1), p._4.toString, p._6.toString)
    })
  }

  // ---- Table 5: synthetic statistics ----------------------------------

  final case class T5Row(dataset: String, nV: Int, nE: Long, avgDeg: Double,
                         csrBytes: Long, nBlocks: Int)

  def table5Rows()(implicit spark: SparkSession): Seq[T5Row] =
    Datasets.synthetic.map { spec =>
      val bg = Datasets.blocked(spec, "seq")
      T5Row(spec.name, bg.g.nV, bg.g.nEdgesUndirected, bg.g.avgDegree, bg.totalBytes, bg.nBlocks)
    }

  def renderTable5(rows: Seq[T5Row]): String =
    grid(Seq("Graph", "|V|", "|E|", "AvgDeg", "CSR bytes", "#Blocks"),
         rows.map(r => Seq(r.dataset, r.nV.toString, r.nE.toString, fmt(r.avgDeg),
                           r.csrBytes.toString, r.nBlocks.toString)))

  // ---- Table 6: three systems on the synthetic family -----------------

  final case class T6Row(dataset: String, taskKind: String, system: String, wallSec: Double)

  def table6Rows()(implicit spark: SparkSession): Seq[T6Row] =
    for {
      spec <- Datasets.synthetic
      taskKind <- Seq("RWNV", "PRNV")
      system <- Seq("SOGW", "SGSC", "GraSorw")
    } yield T6Row(spec.name, taskKind, system,
                  run(spec, "seq", taskKind, system).wallTimeSec)

  def renderTable6(rows: Seq[T6Row]): String = {
    val header = Seq("Graph", "Task", "SOGW", "SGSC", "GraSorw",
                     "p.SOGW", "p.SGSC", "p.GraSorw")
    val grouped = rows.groupBy(r => (r.dataset, r.taskKind))
    val ordered = for {
      spec <- Datasets.synthetic
      tk <- Seq("RWNV", "PRNV")
    } yield {
      val g = grouped((spec.name, tk)).map(r => r.system -> r.wallSec).toMap
      Seq(spec.name, tk, fmt(g("SOGW")), fmt(g("SGSC")), fmt(g("GraSorw")),
          fmt(PaperNumbers.table6((spec.name, tk, "SOGW"))),
          fmt(PaperNumbers.table6((spec.name, tk, "SGSC"))),
          fmt(PaperNumbers.table6((spec.name, tk, "GraSorw"))))
    }
    grid(header, ordered)
  }

  // ---- End-to-end (Figure 8 analog): three systems on real graphs -----

  final case class E2ERow(dataset: String, taskKind: String, system: String, m: DiskSim.Metrics)

  def endToEndRows()(implicit spark: SparkSession): Seq[E2ERow] =
    for {
      spec <- Datasets.real
      taskKind <- Seq("RWNV", "PRNV")
      system <- Seq("SOGW", "SGSC", "GraSorw")
    } yield E2ERow(spec.name, taskKind, system, run(spec, "seq", taskKind, system))

  def renderEndToEnd(rows: Seq[E2ERow]): String = {
    val header = Seq("Graph", "Task", "System", "Wall(s)", "Exec(s)", "I/O(s)", "Speedup-vs-SOGW")
    val bySys = rows.groupBy(r => (r.dataset, r.taskKind))
    grid(header, rows.map { r =>
      val sogw = bySys((r.dataset, r.taskKind)).find(_.system == "SOGW").get.m.wallTimeSec
      Seq(r.dataset, r.taskKind, r.system, fmt(r.m.wallTimeSec), fmt(r.m.execTimeSec),
          fmt(r.m.ioTimeSec), fmt(sogw / r.m.wallTimeSec) + "x")
    })
  }

  // ---- Table 7: first-order engines -----------------------------------

  final case class T7Row(dataset: String, system: String, m: DiskSim.Metrics)

  private val t7Systems =
    Seq("GraphWalker" -> "FO:GraphWalker", "GraSorw-No-LBL" -> "FO:Iteration", "GraSorw" -> "FO-GraSorw")

  def table7Rows()(implicit spark: SparkSession): Seq[T7Row] =
    for {
      spec <- Seq(Datasets.lj, Datasets.tw, Datasets.fr, Datasets.uk)
      (label, kind) <- t7Systems
    } yield T7Row(spec.name, label, run(spec, "seq", "DeepWalk", kind))

  def renderTable7(rows: Seq[T7Row]): String = {
    val header = Seq("Graph", "System", "Wall(s)", "Exec(s)", "BlockIO(s)",
                     "p.Wall", "p.Exec", "p.BIO(s)")
    grid(header, rows.map { r =>
      val p = PaperNumbers.table7((r.dataset, r.system))
      Seq(r.dataset, r.system, fmt(r.m.wallTimeSec), fmt(r.m.execTimeSec),
          fmt(r.m.blockIOTimeSec), fmt(p._1), fmt(p._2), fmt(p._3))
    })
  }

  // ---- Table 8: scheduling strategies ---------------------------------

  final case class T8Row(dataset: String, strategy: String, m: DiskSim.Metrics)

  val t8Strategies = Seq("Alphabet", "Iteration", "Min-Height", "Max-Sum", "GraphWalker")

  def table8Rows()(implicit spark: SparkSession): Seq[T8Row] =
    for {
      spec <- Seq(Datasets.lj, Datasets.tw, Datasets.fr, Datasets.uk)
      strat <- t8Strategies
    } yield T8Row(spec.name, strat, run(spec, "seq", "DeepWalk", s"FO:$strat"))

  def renderTable8(rows: Seq[T8Row]): String = {
    val header = Seq("Graph", "Strategy", "BlockIO#", "BlockIO(s)", "p.BlockIO#")
    grid(header, rows.map { r =>
      Seq(r.dataset, r.strategy, r.m.blockIOCount.toString, fmt(r.m.blockIOTimeSec),
          PaperNumbers.table8((r.dataset, r.strategy)).toString)
    })
  }
}
