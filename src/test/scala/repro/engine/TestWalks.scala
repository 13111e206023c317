package repro.engine

/** Builds walk records for tests that place or load walks by hand. */
object TestWalks {

  /** A page holding one walk as record 0. */
  def walk(id: Long, prev: Int, cur: Int, hop: Int): WalkBuffer = {
    val b = new WalkBuffer(1)
    b.add(id, hop, prev, cur)
    b
  }

  /** A page holding record 0 of each of `ws`, in order. */
  def walks(ws: WalkBuffer*): WalkBuffer = {
    val b = new WalkBuffer(ws.length)
    ws.foreach(w => b.add(w.id(0), w.hop(0), w.prev(0), w.cur(0)))
    b
  }
}
