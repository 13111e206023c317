package repro.graph

/** A CSR graph partitioned into `nBlocks` contiguous vertex ranges — the
  * on-disk organization of the paper's §6/Figure 6: a Start Vertex File
  * (here `blockStart`), an Index File (CSR offsets) and a CSR File
  * (neighbor array), sequentially laid out block after block.
  *
  * Any non-sequential partition (e.g. the METIS-like locality partition) is
  * expressed by relabeling vertices first so blocks are always contiguous;
  * this matches the paper's custom-partition support where the block file
  * induces a renumbering.
  *
  * Byte accounting follows the paper's example (Fig. 5/6): every index or
  * CSR cell is 4 bytes; a block's bytes are its index slice plus its
  * neighbor slice. A single-vertex on-demand read is latency-bound and
  * priced per read (`DiskSim.readVertices`), not per byte.
  */
final class BlockedGraph(val g: CsrGraph, val blockStart: Array[Int]) {
  require(blockStart.length >= 2, "need at least one block")
  require(blockStart(0) == 0 && blockStart.last == g.nV, "blocks must cover all vertices")
  require((1 until blockStart.length).forall(b => blockStart(b - 1) <= blockStart(b)),
    s"blockStart must be non-decreasing: ${blockStart.mkString("[", ", ", "]")}")

  val nBlocks: Int = blockStart.length - 1

  private val blockOfVertex: Array[Int] = {
    val a = new Array[Int](g.nV)
    var b = 0
    while (b < nBlocks) {
      var v = blockStart(b)
      while (v < blockStart(b + 1)) { a(v) = b; v += 1 }
      b += 1
    }
    a
  }

  /** B(v): the block the vertex belongs to. */
  def blockOf(v: Int): Int = blockOfVertex(v)

  def verticesInBlock(b: Int): Int = blockStart(b + 1) - blockStart(b)

  def edgesInBlock(b: Int): Long =
    g.offsets(blockStart(b + 1)).toLong - g.offsets(blockStart(b)).toLong

  /** Bytes of the block's Index File slice + CSR File slice (4B cells). */
  def blockBytes(b: Int): Long =
    4L * (verticesInBlock(b) + 1) + 4L * edgesInBlock(b)

  /** Starting byte offset of block `b` in the sequential disk layout. */
  val blockOffset: Array[Long] = {
    val a = new Array[Long](nBlocks + 1)
    var b = 0
    while (b < nBlocks) { a(b + 1) = a(b) + blockBytes(b); b += 1 }
    a
  }

  def totalBytes: Long = blockOffset(nBlocks)

  /** Fraction of directed adjacency entries crossing block boundaries. */
  def edgeCut: Double = {
    var cut = 0L
    var v = 0
    while (v < g.nV) {
      val bv = blockOfVertex(v)
      var j = g.offsets(v)
      while (j < g.offsets(v + 1)) {
        if (blockOfVertex(g.neighbors(j)) != bv) cut += 1
        j += 1
      }
      v += 1
    }
    if (g.nEdgesDirected == 0) 0.0 else cut.toDouble / g.nEdgesDirected
  }
}

object BlockedGraph {

  /** Sequential partition (the paper's default, §6.2): split the vertex ID
    * range so every block holds roughly equal *bytes* (index + CSR cells),
    * mirroring "all blocks fit the pre-defined block size".
    */
  def sequential(g: CsrGraph, nBlocks: Int): BlockedGraph = {
    require(nBlocks >= 1 && nBlocks <= g.nV, s"bad block count $nBlocks for ${g.nV} vertices")
    val totalCells = g.nV.toLong + g.nEdgesDirected
    val target = math.max(1L, totalCells / nBlocks)
    val starts = new Array[Int](nBlocks + 1)
    var b = 1
    var v = 0
    var cells = 0L
    while (v < g.nV && b < nBlocks) {
      cells += 1L + g.degree(v)
      v += 1
      if (cells >= target * b && g.nV - v >= nBlocks - b) {
        starts(b) = v
        b += 1
      }
    }
    // Any unassigned boundaries collapse at the end (tiny graphs).
    while (b < nBlocks) { starts(b) = math.max(starts(b - 1), g.nV - (nBlocks - b)); b += 1 }
    starts(nBlocks) = g.nV
    new BlockedGraph(g, starts)
  }

  /** Partition from an explicit vertex→block assignment: relabels vertices so
    * blocks are contiguous and returns the blocked relabeled graph. A vertex's
    * new id is its block's start plus its rank by old id within the block.
    */
  def fromAssignment(g: CsrGraph, assign: Array[Int]): BlockedGraph = {
    require(assign.length == g.nV, "assignment must cover all vertices")
    require(assign.forall(_ >= 0), s"block ids must be non-negative, got ${assign.min}")
    val nBlocks = assign.max + 1
    val counts = new Array[Int](nBlocks)
    assign.foreach(b => counts(b) += 1)
    val starts = new Array[Int](nBlocks + 1)
    var b = 0
    while (b < nBlocks) { starts(b + 1) = starts(b) + counts(b); b += 1 }
    val cursor = java.util.Arrays.copyOf(starts, nBlocks)
    val perm = new Array[Int](g.nV)
    var v = 0
    while (v < g.nV) {
      perm(v) = cursor(assign(v))
      cursor(assign(v)) += 1
      v += 1
    }
    new BlockedGraph(g.relabel(perm), starts)
  }
}
