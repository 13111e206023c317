package repro

import scala.util.Random
import repro.graph.{BlockedGraph, CsrGraph}

/** Small, locally-constructed graphs for engine/unit tests (no Spark needed;
  * Spark-side generators are themselves tested in GraphGenSpec).
  */
object TestGraphs {

  def fromPairs(nV: Int, pairs: Seq[(Int, Int)]): CsrGraph =
    CsrGraph.fromEdges(nV, pairs.map(_._1).toArray, pairs.map(_._2).toArray)

  /** Cycle 0-1-...-n-0. */
  def ring(n: Int): CsrGraph = fromPairs(n, (0 until n).map(i => (i, (i + 1) % n)))

  /** Path 0-1-...-(n-1): endpoints have degree 1. */
  def path(n: Int): CsrGraph = fromPairs(n, (0 until n - 1).map(i => (i, i + 1)))

  /** Complete graph on n vertices. */
  def clique(n: Int): CsrGraph =
    fromPairs(n, for (i <- 0 until n; j <- i + 1 until n) yield (i, j))

  /** Star: center 0 connected to all others. */
  def star(n: Int): CsrGraph = fromPairs(n, (1 until n).map(i => (0, i)))

  /** Wheel: hub 0 joined to every vertex of the rim cycle 1-2-...-(n-1)-1.
    * From the hub, a step back to the rim sees all three Node2vec hop
    * distances: the return vertex, its two rim neighbors and the far rim.
    */
  def wheel(n: Int): CsrGraph =
    fromPairs(n, (1 until n).map(i => (0, i)) ++ (1 until n).map(i => (i, i % (n - 1) + 1)))

  /** Erdős–Rényi-ish: `m` random pairs (self-loops dropped by the builder).
    * May leave isolated (dangling) vertices — intentionally.
    */
  def er(nV: Int, m: Int, seed: Long): CsrGraph = {
    val rng = new Random(seed)
    fromPairs(nV, Seq.fill(m)((rng.nextInt(nV), rng.nextInt(nV))))
  }

  /** A connected ER graph: ring + random chords, no dangling vertices. */
  def connected(nV: Int, chords: Int, seed: Long): CsrGraph = {
    val rng = new Random(seed)
    val ringEdges = (0 until nV).map(i => (i, (i + 1) % nV))
    val chordEdges = Seq.fill(chords)((rng.nextInt(nV), rng.nextInt(nV)))
    fromPairs(nV, ringEdges ++ chordEdges)
  }

  def blocked(g: CsrGraph, nBlocks: Int): BlockedGraph = BlockedGraph.sequential(g, nBlocks)

  /** `g.neighborsOf(v)`: the neighbors of `v` as a fresh array. */
  implicit final class CsrNeighbors(private val g: CsrGraph) extends AnyVal {
    def neighborsOf(v: Int): Array[Int] =
      java.util.Arrays.copyOfRange(g.neighbors, g.offsets(v), g.offsets(v + 1))
  }
}
