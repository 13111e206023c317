package repro.graph

import org.apache.spark.sql.DataFrame

/** Immutable in-memory CSR (Compressed Sparse Row) adjacency, mirroring the
  * on-disk layout of the paper's Figure 6 (an index file of offsets plus a
  * flat neighbor array).
  *
  * Adjacency lists are sorted so that `hasEdge` — which Node2vec needs to
  * decide whether the candidate vertex is one hop from the previous vertex —
  * is a binary search. Vertices are dense `0 until nV` Ints; all graphs in
  * this reproduction are undirected and unweighted, matching the paper's
  * experimental setup ("all graphs are processed into undirected", p = q
  * weights of 1).
  *
  * @param nV        number of vertices
  * @param offsets   length `nV + 1`; neighbors of `v` are
  *                  `neighbors[offsets(v) until offsets(v+1))`
  * @param neighbors flat, per-vertex-sorted adjacency
  */
final class CsrGraph(val nV: Int, val offsets: Array[Int], val neighbors: Array[Int]) {
  require(offsets.length == nV + 1, s"offsets length ${offsets.length} != nV+1 ${nV + 1}")
  require(offsets(0) == 0 && offsets(nV) == neighbors.length, "offsets must span neighbors")

  /** Number of directed adjacency entries (2x the undirected edge count). */
  def nEdgesDirected: Long = neighbors.length.toLong

  /** Undirected edge count (each edge stored in both endpoints' lists). */
  def nEdgesUndirected: Long = nEdgesDirected / 2

  def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  def avgDegree: Double = if (nV == 0) 0.0 else nEdgesDirected.toDouble / nV

  /** The i-th neighbor of `v` (0-based within its sorted list). */
  def neighbor(v: Int, i: Int): Int = neighbors(offsets(v) + i)

  /** Whether edge (u, z) exists — binary search in `u`'s sorted list. */
  def hasEdge(u: Int, z: Int): Boolean = {
    var lo = offsets(u); var hi = offsets(u + 1) - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      val m   = neighbors(mid)
      if (m == z) return true
      else if (m < z) lo = mid + 1
      else hi = mid - 1
    }
    false
  }

  /** Relabel vertices by permutation `newId(old) = perm(old)`, preserving the
    * edge set. Used to express an arbitrary partition as contiguous blocks.
    */
  def relabel(perm: Array[Int]): CsrGraph = {
    require(perm.length == nV, "permutation must cover all vertices")
    // Each undirected edge once (its `u < v` entry), renamed; `fromEdges`
    // symmetrizes it and sorts the lists.
    val srcs = new Array[Int](nEdgesUndirected.toInt)
    val dsts = new Array[Int](srcs.length)
    var k = 0
    var v = 0
    while (v < nV) {
      var j = offsets(v)
      while (j < offsets(v + 1)) {
        if (v < neighbors(j)) { srcs(k) = perm(v); dsts(k) = perm(neighbors(j)); k += 1 }
        j += 1
      }
      v += 1
    }
    CsrGraph.fromEdges(nV, srcs, dsts)
  }
}

object CsrGraph {

  /** Build a CSR graph from directed edge pairs; symmetrizes, deduplicates,
    * and drops self-loops, so the result is a simple undirected graph.
    *
    * A counting sort by source: count both directions of every pair, take
    * the prefix sum, scatter, then sort and dedupe each adjacency list in
    * place.
    */
  def fromEdges(nV: Int, srcs: Array[Int], dsts: Array[Int]): CsrGraph = {
    require(srcs.length == dsts.length, "src/dst arrays must align")
    val m = srcs.length
    require(2L * m <= Int.MaxValue,
      s"$m pairs give ${2L * m} symmetrized entries; CSR Int offsets hold at most ${Int.MaxValue}")
    val off = new Array[Int](nV + 1)
    var i = 0
    while (i < m) {
      val s = srcs(i); val d = dsts(i)
      require(s >= 0 && s < nV && d >= 0 && d < nV, s"edge ($s,$d) out of range [0,$nV)")
      if (s != d) { off(s + 1) += 1; off(d + 1) += 1 }
      i += 1
    }
    var v = 0
    while (v < nV) { off(v + 1) += off(v); v += 1 }
    val nbr = new Array[Int](off(nV))
    val cursor = java.util.Arrays.copyOf(off, nV)
    i = 0
    while (i < m) {
      val s = srcs(i); val d = dsts(i)
      if (s != d) {
        nbr(cursor(s)) = d; cursor(s) += 1
        nbr(cursor(d)) = s; cursor(d) += 1
      }
      i += 1
    }
    // Sort each list and compact it, without its duplicates, down to `w`;
    // `off(v)` moves from the raw start to the deduplicated one.
    var w = 0
    v = 0
    while (v < nV) {
      val from = off(v); val until = off(v + 1)
      java.util.Arrays.sort(nbr, from, until)
      off(v) = w
      var j = from
      while (j < until) {
        if (w == off(v) || nbr(j) != nbr(w - 1)) { nbr(w) = nbr(j); w += 1 }
        j += 1
      }
      v += 1
    }
    off(nV) = w
    new CsrGraph(nV, off, if (w == nbr.length) nbr else java.util.Arrays.copyOf(nbr, w))
  }

  /** Build from a Spark DataFrame with integer columns `src`, `dst`.
    * Graphs at lite scale fit the driver comfortably; the DataFrame is the
    * system of record (generators are Spark computations) and this is the
    * bridge into the disk-engine substrate.
    */
  def fromDataFrame(df: DataFrame, nV: Int): CsrGraph = {
    val rows = df.select("src", "dst").collect()
    val s = new Array[Int](rows.length)
    val d = new Array[Int](rows.length)
    var i = 0
    while (i < rows.length) {
      s(i) = rows(i).getInt(0); d(i) = rows(i).getInt(1); i += 1
    }
    fromEdges(nV, s, d)
  }
}
