exception Truncated
exception Malformed of string

(* Sanity cap on decoded lengths: a corrupt length prefix must fail
   fast, not attempt a multi-gigabyte allocation. 2^28 elements is far
   beyond any real selection artifact. *)
let max_len = 1 lsl 28

(* Slice-by-8: [crc_tables] holds eight 256-entry tables back to back.
   Table 0 is the bytewise table; entry b of table k is the CRC state
   after byte b followed by k zero bytes, so the state after 8 bytes is
   the xor of one lookup per byte, each in its own table. *)
let crc_tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let c = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- t.(c land 0xFF) lxor (c lsr 8)
       done
     done;
     t)

let crc32 ?(pos = 0) s =
  let t = Lazy.force crc_tables in
  let n = String.length s in
  let c = ref 0xFFFFFFFF in
  let i = ref pos in
  while !i + 8 <= n do
    let lo = !c lxor (String.get_uint16_le s !i lor (String.get_uint16_le s (!i + 2) lsl 16)) in
    let b4 = String.get_uint16_le s (!i + 4) and b6 = String.get_uint16_le s (!i + 6) in
    c :=
      t.((7 * 256) + (lo land 0xFF))
      lxor t.((6 * 256) + ((lo lsr 8) land 0xFF))
      lxor t.((5 * 256) + ((lo lsr 16) land 0xFF))
      lxor t.((4 * 256) + (lo lsr 24))
      lxor t.((3 * 256) + (b4 land 0xFF))
      lxor t.((2 * 256) + (b4 lsr 8))
      lxor t.(256 + (b6 land 0xFF))
      lxor t.(b6 lsr 8);
    i := !i + 8
  done;
  for j = !i to n - 1 do
    c := t.((!c lxor Char.code s.[j]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

module W = struct
  type t = Buffer.t

  let create () = Buffer.create 4096

  let contents = Buffer.contents

  let u32 b v =
    if v < 0 || v > 0xFFFFFFFF then raise (Malformed "u32 out of range");
    Buffer.add_int32_le b (Int32.of_int v)

  let f64 b x = Buffer.add_int64_le b (Int64.bits_of_float x)

  let int b v =
    if v < 0 then raise (Malformed "negative integer field");
    u32 b (v land 0xFFFFFFFF);
    u32 b ((v lsr 32) land 0x7FFFFFFF)

  let str b s =
    u32 b (String.length s);
    Buffer.add_string b s

  let int_array b a =
    u32 b (Array.length a);
    Array.iter (fun v -> u32 b v) a

  let float_array b a =
    u32 b (Array.length a);
    Array.iter (fun x -> f64 b x) a

  let mat b m =
    let rows, cols = Linalg.Mat.dims m in
    u32 b rows;
    u32 b cols;
    for i = 0 to rows - 1 do
      for j = 0 to cols - 1 do
        f64 b (Linalg.Mat.get m i j)
      done
    done
end

module R = struct
  type t = { s : string; mutable pos : int }

  let create ?(pos = 0) s = { s; pos }

  let at_end t = t.pos = String.length t.s

  let skip_rest t = t.pos <- String.length t.s

  let need t n =
    if n < 0 || t.pos + n > String.length t.s then raise Truncated

  let u32 t =
    need t 4;
    let v = Int32.to_int (String.get_int32_le t.s t.pos) land 0xFFFFFFFF in
    t.pos <- t.pos + 4;
    v

  (* [W.int] writes non-negative 63-bit ints, so the high word is below
     2^30; a larger one would decode to a negative int *)
  let int t =
    let lo = u32 t in
    let hi = u32 t in
    if hi >= 1 lsl 30 then raise (Malformed "integer field out of range");
    (hi lsl 32) lor lo

  let f64 t =
    need t 8;
    let v = Int64.float_of_bits (String.get_int64_le t.s t.pos) in
    t.pos <- t.pos + 8;
    v

  let len t what =
    let n = u32 t in
    if n > max_len then raise (Malformed (what ^ " length out of range"));
    n

  let str t =
    let n = len t "string" in
    need t n;
    let s = String.sub t.s t.pos n in
    t.pos <- t.pos + n;
    s

  (* explicit loops: Array.init / Mat.init evaluation order is not a
     documented guarantee, and the reader is strictly sequential *)
  let int_array t =
    let n = len t "int array" in
    need t (4 * n);
    let a = Array.make n 0 in
    for i = 0 to n - 1 do
      a.(i) <- u32 t
    done;
    a

  let float_array t =
    let n = len t "float array" in
    need t (8 * n);
    let a = Array.make n 0.0 in
    for i = 0 to n - 1 do
      a.(i) <- f64 t
    done;
    a

  let mat t =
    let rows = len t "matrix rows" in
    let cols = len t "matrix cols" in
    if rows * cols > max_len then raise (Malformed "matrix size out of range");
    need t (8 * rows * cols);
    let m = Linalg.Mat.create rows cols in
    for k = 0 to (rows * cols) - 1 do
      m.Linalg.Mat.data.(k) <- f64 t
    done;
    m
end

(* Every decoder failure becomes a message: a short field, a bad length
   or tag, or a value a constructor rejects ([Invalid_argument]). *)
let decode ?pos s f =
  let r = R.create ?pos s in
  match f r with
  | v -> if R.at_end r then Ok v else Error "trailing bytes in payload"
  | exception Truncated -> Error "payload field truncated"
  | exception Malformed msg -> Error msg
  | exception Invalid_argument msg -> Error msg
