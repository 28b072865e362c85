(* The whole state lives in one 41-byte buffer: the four xoshiro256**
   words, the polar method's cached second deviate (as its bit pattern)
   and a flag saying whether that deviate is pending. ocamlopt compiles
   the [Bytes] 64-bit accessors to plain loads and stores on unboxed
   int64s, so a draw allocates nothing, where mutable [int64] record
   fields would box every state word on every step. *)
type t = Bytes.t

let s0 = 0
let s1 = 8
let s2 = 16
let s3 = 24
let spare = 32      (* bits of the cached second polar deviate *)
let has_spare = 40  (* '\001' while [spare] holds an unused deviate *)

let state_bytes = 41

(* SplitMix64: turns any seed into a well-distributed state. *)
let splitmix64 state =
  let z = Int64.add !state 0x9E3779B97F4A7C15L in
  state := z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let r = Bytes.make state_bytes '\000' in
  List.iter (fun off -> Bytes.set_int64_ne r off (splitmix64 state)) [ s0; s1; s2; s3 ];
  r

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* inlined into every draw so the result stays unboxed up to its use *)
let[@inline] next r =
  let x0 = Bytes.get_int64_ne r s0 and x1 = Bytes.get_int64_ne r s1
  and x2 = Bytes.get_int64_ne r s2 and x3 = Bytes.get_int64_ne r s3 in
  let result = Int64.mul (rotl (Int64.mul x1 5L) 7) 9L in
  let t = Int64.shift_left x1 17 in
  let x2 = Int64.logxor x2 x0 in
  let x3 = Int64.logxor x3 x1 in
  Bytes.set_int64_ne r s1 (Int64.logxor x1 x2);
  Bytes.set_int64_ne r s0 (Int64.logxor x0 x3);
  Bytes.set_int64_ne r s2 (Int64.logxor x2 t);
  Bytes.set_int64_ne r s3 (rotl x3 45);
  result

let bits64 r = next r

let split r =
  let seed = Int64.to_int (next r) in
  create (seed lxor 0x5DEECE66D)

(* 53 uniform bits into [0,1) *)
let[@inline] float r =
  let x = Int64.shift_right_logical (next r) 11 in
  Int64.to_float x *. 0x1.0p-53

let[@inline] uniform r lo hi = lo +. ((hi -. lo) *. float r)

let int r bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* keep 62 bits so the value fits OCaml's native int; plain modulo is
     fine for our small bounds *)
  let x = Int64.to_int (Int64.shift_right_logical (next r) 2) in
  x mod bound

let gaussian r =
  if Bytes.get r has_spare <> '\000' then begin
    Bytes.set r has_spare '\000';
    Int64.float_of_bits (Bytes.get_int64_ne r spare)
  end
  else begin
    (* polar method: redraw until (u, v) falls strictly inside the unit
       disc, away from the origin *)
    let u = ref 0.0 and v = ref 0.0 and s = ref 1.0 in
    while !s >= 1.0 || Float.equal !s 0.0 do
      u := uniform r (-1.0) 1.0;
      v := uniform r (-1.0) 1.0;
      s := (!u *. !u) +. (!v *. !v)
    done;
    let mul = sqrt (-2.0 *. log !s /. !s) in
    Bytes.set_int64_ne r spare (Int64.bits_of_float (!v *. mul));
    Bytes.set r has_spare '\001';
    !u *. mul
  end

let gaussian_vector r n = Array.init n (fun _ -> gaussian r)

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done
