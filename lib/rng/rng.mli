(** Deterministic pseudo-random number generation.

    The generator is xoshiro256** seeded through SplitMix64, so any
    64-bit seed yields a well-mixed state. Every stochastic component of
    the library takes an explicit [t] so that experiments are exactly
    reproducible.

    The state is one flat byte buffer, so a draw allocates nothing. The
    layout does not touch the stream: xoshiro256**, the 53-bit float
    mapping and the polar method's cached second deviate give every
    seed the values it has always given (a golden test pins them). *)

type t

val create : int -> t
(** [create seed] builds a generator from an arbitrary integer seed. *)

val split : t -> t
(** [split rng] derives an independent generator stream and advances
    [rng]. Use it to hand sub-components their own streams. *)

(* lint: allow-next unused-export: test_golden pins the raw stream through it *)
val bits64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val uniform : t -> float -> float -> float
(** [uniform rng lo hi] is uniform in [\[lo, hi)]. *)

val int : t -> int -> int
(** [int rng bound] is uniform in [\[0, bound)]. Raises
    [Invalid_argument] if [bound <= 0]. *)

val gaussian : t -> float
(** Standard normal deviate (Marsaglia polar method). *)

val gaussian_vector : t -> int -> float array
(** [gaussian_vector rng n] draws [n] iid standard normals. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
