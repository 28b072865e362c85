(** A small 90nm-flavoured standard-cell library.

    Nominal delays are representative intrinsic pin-to-pin delays in
    picoseconds for a mid-drive cell in a 90 nm process; the absolute
    scale is irrelevant to the path-selection method (everything is
    normalized by the timing constraint), only the relative spread
    matters. *)

type kind =
  | Inv
  | Buf
  | Nand2
  | Nand3
  | Nor2
  | Nor3
  | And2
  | Or2
  | Xor2
  | Xnor2
  | Aoi21
  | Oai21

val all : kind list

val name : kind -> string

val of_name : string -> kind option
(** Case-insensitive; recognizes both our names and the ISCAS
    [.bench] spellings ([NOT], [AND], [NAND], ...). *)

val arity : kind -> int
(** Number of inputs. *)

val delay : kind -> fanout:int -> float
(** [delay k ~fanout] is the nominal gate delay driving [fanout] sinks:
    [intrinsic + load * max 0 (fanout - 1)]. *)

val leff_sensitivity : kind -> float
(** Dimensionless sensitivity of delay to the normalized effective
    channel length variation (fraction of nominal delay per sigma of a
    10%-of-mean L_eff deviation). *)

val vt_sensitivity : kind -> float
(** Same, for zero-bias threshold voltage. *)
