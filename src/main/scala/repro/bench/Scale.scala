package repro.bench

import repro.disk.{CostModel, DiskSim}
import repro.graph.{BlockedGraph, GraphSpec}
import repro.walk.WalkTask

/** Scale bridging between the lite datasets and the paper's setup
  * (DESIGN.md "Scale bridging"): builds the DiskSim for a run with
  *
  *   byteScale σ_B = paper CSR bytes / lite CSR bytes
  *   walkScale σ_W = paper walk-steps / lite walk-steps
  *
  * so byte-proportional costs (block I/O) and per-step-proportional costs
  * (vertex I/O, walk I/O, execution) are charged at paper magnitude while
  * every scheduling/loading decision is computed on the lite graph.
  */
object Scale {

  /** σ_W for `task` on `spec`'s paper graph (§7.1 workloads). RWNV and
    * DeepWalk: paper 10 walks/vertex x length 80 over the lite task's walks
    * x length. PRNV: 4|V| total samples over the lite task's walks; both
    * sides share the expected length E[min(Geom(stop), maxLen)], which
    * cancels.
    */
  def walkScale(spec: GraphSpec, task: WalkTask): Double = task.name match {
    case "RWNV" | "DeepWalk" => 10.0 * spec.paperV * 80 / (task.totalWalks.toDouble * task.maxLen)
    case "PRNV"              => 4.0 * spec.paperV / task.totalWalks
    case other               => throw new IllegalArgumentException(s"unknown task $other")
  }

  def byteScale(spec: GraphSpec, bg: BlockedGraph): Double =
    spec.paperCsrBytes.toDouble / bg.totalBytes

  /** A fresh simulator for one engine run. */
  def sim(spec: GraphSpec, bg: BlockedGraph, task: WalkTask): DiskSim =
    new DiskSim(CostModel.paperSsd, byteScale(spec, bg), walkScale(spec, task))
}
