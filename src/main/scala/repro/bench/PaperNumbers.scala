package repro.bench

/** The paper's reported numbers, embedded so every harness prints
  * "ours vs paper" side by side and EXPERIMENTS.md can be diffed.
  * All times in seconds. Keys use the lite dataset names.
  */
object PaperNumbers {

  /** Table 3 — (wall, exec, blockIONum, blockIOTime) per
    * (dataset, task, engine) with engine ∈ {PB, Bi-Block}.
    */
  val table3: Map[(String, String, String), (Double, Double, Long, Double)] = Map(
    ("LJ", "RWNV", "PB")       -> (332.0, 189.0, 13584L, 90.0),
    ("LJ", "RWNV", "Bi-Block") -> (175.0, 100.0, 6299L, 42.0),
    ("LJ", "PRNV", "PB")       -> (9.8, 5.7, 38L, 3.0),
    ("LJ", "PRNV", "Bi-Block") -> (5.8, 3.6, 21L, 2.0),
    ("TW", "RWNV", "PB")       -> (6868.0, 1905.0, 15779L, 4463.0),
    ("TW", "RWNV", "Bi-Block") -> (2960.0, 1198.0, 8090L, 1384.0),
    ("TW", "PRNV", "PB")       -> (249.8, 83.5, 419L, 138.2),
    ("TW", "PRNV", "Bi-Block") -> (111.6, 44.2, 255L, 43.9),
    ("FR", "RWNV", "PB")       -> (14526.0, 3982.0, 34117L, 9743.0),
    ("FR", "RWNV", "Bi-Block") -> (6716.0, 3217.0, 18550L, 2882.0),
    ("FR", "PRNV", "PB")       -> (439.9, 103.6, 964L, 283.5),
    ("FR", "PRNV", "Bi-Block") -> (240.0, 102.7, 581L, 94.3),
    ("UK", "RWNV", "PB")       -> (20707.0, 4143.0, 29309L, 16043.0),
    ("UK", "RWNV", "Bi-Block") -> (3789.0, 744.0, 10039L, 2596.0),
    ("UK", "PRNV", "PB")       -> (554.1, 102.1, 659L, 379.6),
    ("UK", "PRNV", "Bi-Block") -> (146.5, 32.0, 312L, 81.0),
    ("Kron29", "RWNV", "PB")       -> (133491.0, 24312.0, 19592L, 104962.0),
    ("Kron29", "RWNV", "Bi-Block") -> (49694.0, 12738.0, 11608L, 34024.0),
    ("Kron29", "PRNV", "PB")       -> (5793.3, 827.0, 878L, 4728.0),
    ("Kron29", "PRNV", "Bi-Block") -> (2102.5, 366.9, 520L, 1582.3),
    ("CW", "RWNV", "PB")       -> (911114.0, 316320.0, 6384L, 568576.0),
    ("CW", "RWNV", "Bi-Block") -> (249529.0, 21206.0, 2624L, 228256.0),
    ("CW", "PRNV", "PB")       -> (39649.0, 22296.0, 100L, 12309.4),
    ("CW", "PRNV", "Bi-Block") -> (6218.1, 892.8, 45L, 3772.6),
  )

  /** Table 4 (RWNV) — (wall, exec, blockIOTime, blockIONum, odTime, odNum)
    * keyed by (dataset, partition, loader); partition ∈ {Seq, METIS},
    * loader ∈ {Full, Learned}; on-demand fields are 0 for Full.
    */
  val table4: Map[(String, String, String), (Double, Double, Double, Long, Double, Long)] = Map(
    ("TW", "Seq", "Full")      -> (3434.0, 1317.0, 1689.0, 9936L, 0.0, 0L),
    ("TW", "Seq", "Learned")   -> (3229.0, 1266.0, 1419.0, 8224L, 61.0, 1714L),
    ("TW", "METIS", "Full")    -> (2829.0, 1039.0, 1541.0, 7540L, 0.0, 0L),
    ("TW", "METIS", "Learned") -> (2465.0, 1053.0, 1056.0, 5145L, 96.0, 2168L),
    ("UK", "Seq", "Full")      -> (4798.0, 662.0, 3705.0, 13587L, 0.0, 0L),
    ("UK", "Seq", "Learned")   -> (2992.0, 1467.0, 749.0, 2650L, 332.0, 10628L),
    ("UK", "METIS", "Full")    -> (1856.0, 98.0, 1044.0, 3751L, 0.0, 0L),
    ("UK", "METIS", "Learned") -> (1165.0, 166.0, 294.0, 998L, 38.0, 2558L),
  )

  /** Table 6 — wall time per (dataset, task, system),
    * system ∈ {SOGW, SGSC, GraSorw}.
    */
  val table6: Map[(String, String, String), Double] = Map(
    ("CirculantG", "RWNV", "SOGW") -> 1696.0, ("CirculantG", "RWNV", "SGSC") -> 772.0, ("CirculantG", "RWNV", "GraSorw") -> 280.0,
    ("CirculantG", "PRNV", "SOGW") -> 47.0, ("CirculantG", "PRNV", "SGSC") -> 46.0, ("CirculantG", "PRNV", "GraSorw") -> 20.0,
    ("RandomG", "RWNV", "SOGW") -> 10200.0, ("RandomG", "RWNV", "SGSC") -> 9790.0, ("RandomG", "RWNV", "GraSorw") -> 2132.0,
    ("RandomG", "PRNV", "SOGW") -> 304.0, ("RandomG", "PRNV", "SGSC") -> 290.0, ("RandomG", "PRNV", "GraSorw") -> 64.0,
    ("BASF", "RWNV", "SOGW") -> 10118.0, ("BASF", "RWNV", "SGSC") -> 10764.0, ("BASF", "RWNV", "GraSorw") -> 2171.0,
    ("BASF", "PRNV", "SOGW") -> 341.0, ("BASF", "PRNV", "SGSC") -> 202.0, ("BASF", "PRNV", "GraSorw") -> 69.0,
    ("RandomG1", "RWNV", "SOGW") -> 21195.0, ("RandomG1", "RWNV", "SGSC") -> 22490.0, ("RandomG1", "RWNV", "GraSorw") -> 4083.0,
    ("RandomG1", "PRNV", "SOGW") -> 1195.0, ("RandomG1", "PRNV", "SGSC") -> 1160.0, ("RandomG1", "PRNV", "GraSorw") -> 140.0,
    ("RandomG2", "RWNV", "SOGW") -> 2699.0, ("RandomG2", "RWNV", "SGSC") -> 2705.0, ("RandomG2", "RWNV", "GraSorw") -> 670.0,
    ("RandomG2", "PRNV", "SOGW") -> 136.0, ("RandomG2", "PRNV", "SGSC") -> 132.0, ("RandomG2", "PRNV", "GraSorw") -> 17.0,
    ("RandomG3", "RWNV", "SOGW") -> 544.1, ("RandomG3", "RWNV", "SGSC") -> 466.3, ("RandomG3", "RWNV", "GraSorw") -> 201.0,
    ("RandomG3", "PRNV", "SOGW") -> 16.39, ("RandomG3", "PRNV", "SGSC") -> 14.67, ("RandomG3", "PRNV", "GraSorw") -> 1.86,
    ("RandomG4", "RWNV", "SOGW") -> 111.0, ("RandomG4", "RWNV", "SGSC") -> 101.0, ("RandomG4", "RWNV", "GraSorw") -> 152.6,
    ("RandomG4", "PRNV", "SOGW") -> 1.76, ("RandomG4", "PRNV", "SGSC") -> 1.64, ("RandomG4", "PRNV", "GraSorw") -> 0.63,
    ("RandomG5", "RWNV", "SOGW") -> 66.0, ("RandomG5", "RWNV", "SGSC") -> 64.0, ("RandomG5", "RWNV", "GraSorw") -> 138.6,
    ("RandomG5", "PRNV", "SOGW") -> 1.13, ("RandomG5", "PRNV", "SGSC") -> 1.02, ("RandomG5", "PRNV", "GraSorw") -> 0.43,
    ("SBM1", "RWNV", "SOGW") -> 110.0, ("SBM1", "RWNV", "SGSC") -> 96.0, ("SBM1", "RWNV", "GraSorw") -> 358.0,
    ("SBM1", "PRNV", "SOGW") -> 1.78, ("SBM1", "PRNV", "SGSC") -> 1.69, ("SBM1", "PRNV", "GraSorw") -> 1.09,
    ("SBM2", "RWNV", "SOGW") -> 223.0, ("SBM2", "RWNV", "SGSC") -> 203.0, ("SBM2", "RWNV", "GraSorw") -> 633.0,
    ("SBM2", "PRNV", "SOGW") -> 3.63, ("SBM2", "PRNV", "SGSC") -> 3.45, ("SBM2", "PRNV", "GraSorw") -> 2.03,
    ("SBM3", "RWNV", "SOGW") -> 179.0, ("SBM3", "RWNV", "SGSC") -> 165.0, ("SBM3", "RWNV", "GraSorw") -> 908.0,
    ("SBM3", "PRNV", "SOGW") -> 3.02, ("SBM3", "PRNV", "SGSC") -> 2.90, ("SBM3", "PRNV", "GraSorw") -> 2.75,
  )

  /** Table 7 — (wall, exec, blockIOTime) per (dataset, system) with
    * system ∈ {GraphWalker, GraSorw-No-LBL, GraSorw}; DeepWalk 10 x 80.
    */
  val table7: Map[(String, String), (Double, Double, Double)] = Map(
    ("LJ", "GraphWalker")    -> (137.0, 84.0, 53.0),
    ("LJ", "GraSorw-No-LBL") -> (133.0, 86.0, 48.0),
    ("LJ", "GraSorw")        -> (135.0, 88.0, 47.0),
    ("TW", "GraphWalker")    -> (1366.0, 851.0, 515.0),
    ("TW", "GraSorw-No-LBL") -> (1399.0, 871.0, 528.0),
    ("TW", "GraSorw")        -> (1302.0, 793.0, 509.0),
    ("FR", "GraphWalker")    -> (2122.0, 1313.0, 809.0),
    ("FR", "GraSorw-No-LBL") -> (2200.0, 1362.0, 838.0),
    ("FR", "GraSorw")        -> (2128.0, 1346.0, 782.0),
    ("UK", "GraphWalker")    -> (2242.0, 1463.0, 779.0),
    ("UK", "GraSorw-No-LBL") -> (1867.0, 1189.0, 677.0),
    ("UK", "GraSorw")        -> (1782.0, 1123.0, 660.0),
  )

  /** Table 8 (Appendix A) — block I/O count per (dataset, strategy);
    * DeepWalk 10 x 80.
    */
  val table8: Map[(String, String), Long] = Map(
    ("LJ", "Alphabet") -> 821L, ("LJ", "Iteration") -> 804L, ("LJ", "Min-Height") -> 1258L,
    ("LJ", "Max-Sum") -> 1007L, ("LJ", "GraphWalker") -> 963L,
    ("TW", "Alphabet") -> 924L, ("TW", "Iteration") -> 919L, ("TW", "Min-Height") -> 1296L,
    ("TW", "Max-Sum") -> 991L, ("TW", "GraphWalker") -> 994L,
    ("FR", "Alphabet") -> 1430L, ("FR", "Iteration") -> 1408L, ("FR", "Min-Height") -> 2081L,
    ("FR", "Max-Sum") -> 1399L, ("FR", "GraphWalker") -> 1410L,
    ("UK", "Alphabet") -> 1099L, ("UK", "Iteration") -> 1088L, ("UK", "Min-Height") -> 1909L,
    ("UK", "Max-Sum") -> 1645L, ("UK", "GraphWalker") -> 1561L,
  )

  /** Table 2 — (|V|, |E| undirected, csrBytes, nBlocks, edgeCutPct). */
  val table2: Map[String, (Double, Double, Double, Int, Double)] = Map(
    "LJ"     -> (4.8e6, 85.7e6, 364e6, 17, 76.51),
    "TW"     -> (41.7e6, 2.4e9, 9.3e9, 18, 89.36),
    "FR"     -> (65.6e6, 3.6e9, 14e9, 27, 91.43),
    "UK"     -> (105e6, 6.6e9, 26e9, 25, 32.49),
    "Kron29" -> (277e6, 33.7e9, 128e9, 13, 92.66),
    "CW"     -> (3.6e9, 226e9, 864e9, 9, Double.NaN),
  )
}
