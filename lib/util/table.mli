(** Plain-text rendering of figure series and tables.

    Every experiment in [empower_experiments] ends by printing the
    rows/series the paper reports; this module holds the shared
    formatting: aligned tables, CDF grids and coarse ASCII curves. *)

val print_table : header:string list -> rows:string list list -> unit
(** Print an aligned table with a header row and a separator line.
    Rows shorter than the header are padded with empty cells. *)

val print_cdf_grid :
  title:string -> xlabel:string -> grid:float list ->
  series:(string * Stats.Ecdf.t) list -> unit
(** Print one column per series: for each grid value x, the fraction of
    samples [<= x]. This is the textual equivalent of the paper's CDF
    figures. *)

val log_grid : lo:float -> hi:float -> n:int -> float list
(** [n] points geometrically spaced between [lo] and [hi] (inclusive);
    used for the paper's log-scale ratio CDFs. Requires positive
    bounds and [n >= 2]. *)

val linear_grid : lo:float -> hi:float -> n:int -> float list
(** [n] points linearly spaced between [lo] and [hi] (inclusive).
    Requires [n >= 2]. *)

val fmt_float : float -> string
(** Compact float formatting used in table cells ("12.3", "0.07"). *)
