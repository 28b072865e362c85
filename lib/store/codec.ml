exception Truncated
exception Malformed of string

(* Sanity cap on decoded lengths: a corrupt length prefix must fail
   fast, not attempt a multi-gigabyte allocation. 2^28 elements is far
   beyond any real selection artifact. *)
let max_len = 1 lsl 28

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 ?(pos = 0) s =
  let t = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = pos to String.length s - 1 do
    c := t.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
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

  let pos t = t.pos

  let at_end t = t.pos = String.length t.s

  let need t n =
    if n < 0 || t.pos + n > String.length t.s then raise Truncated

  let u32 t =
    need t 4;
    let v = Int32.to_int (String.get_int32_le t.s t.pos) land 0xFFFFFFFF in
    t.pos <- t.pos + 4;
    v

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
