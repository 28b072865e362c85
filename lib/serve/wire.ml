type json = Core.Report.json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Floats of float array
  | String of string
  | List of json list
  | Obj of (string * json) list

(* ------------------------------------------------------------------ *)
(* Printing *)

let escape = function
  | '"' -> "\\\""
  | '\\' -> "\\\\"
  | '\n' -> "\\n"
  | '\r' -> "\\r"
  | '\t' -> "\\t"
  | c when Char.code c < 0x20 -> Printf.sprintf "\\u%04x" (Char.code c)
  | c -> String.make 1 c

(* ---- exact floats

   %.17g's bytes without Printf. For decimal exponent k, a * 10^(16-k)
   is formed exactly as hi + lo: 10^n is a double for n <= 22, a
   product's rounding error is itself a double (Float.fma recovers it),
   and hi >= 10^16 > 2^53 is an integer, so lo alone decides the
   half-to-even rounding to 17 significant digits. *)

let pow10 = Array.init 21 (fun n -> Float.of_string ("1e" ^ string_of_int n))
let ipow10 = Array.init 17 (fun n -> int_of_float pow10.(n))

(* the integer nearest a * 10^n, ties to even, when a * 10^n lies in
   [10^16, 10^17); -1 below that range, 0 above it *)
let round_scaled a n =
  let p = pow10.(n) in
  let hi = a *. p in
  let lo = Float.fma a p (-.hi) in
  if hi < 1e16 || (hi <= 1e16 && lo < 0.0) then -1
  else if hi > 1e17 || (hi >= 1e17 && lo >= 0.0) then 0
  else
    let fl = Float.floor lo in
    let d = int_of_float hi + int_of_float fl in
    let frac = lo -. fl in
    if frac > 0.5 || (frac >= 0.5 && d land 1 = 1) then d + 1 else d

(* "00" .. "99" *)
let digit_pairs =
  String.init 200 (fun i -> Char.chr (48 + if i land 1 = 0 then i / 20 else i / 2 mod 10))

(* the 8 digits of [v < 10^8], as one little-endian word of ASCII *)
let add8 buf v =
  let pair k = String.get_uint16_le digit_pairs (2 * k) in
  let hi = v / 10_000 and lo = v mod 10_000 in
  Buffer.add_int64_le buf
    (Int64.of_int
       (pair (hi / 100) lor (pair (hi mod 100) lsl 16) lor (pair (lo / 100) lsl 32)
       lor (pair (lo mod 100) lsl 48)))

(* [v < 10^n] as exactly [n] digits, zero-padded; a leading part word
   is written left-aligned and cut back *)
let rec add_padded buf v n =
  if n > 8 then begin
    add_padded buf (v / 100_000_000) (n - 8);
    add8 buf (v mod 100_000_000)
  end
  else begin
    add8 buf (v * ipow10.(8 - n));
    Buffer.truncate buf (Buffer.length buf - (8 - n))
  end

(* %.17g's fixed notation for the 17 digits [d] at decimal exponent [x]:
   x+1 integer digits (or "0"), then the fraction without its trailing
   zeros, keeping one so the value re-parses as a Float *)
let add_fixed buf d x =
  let nf = 16 - x in
  let ip, fp = if x < 0 then (0, d) else (d / ipow10.(nf), d mod ipow10.(nf)) in
  add_padded buf ip (max (x + 1) 1);
  Buffer.add_char buf '.';
  if fp = 0 then Buffer.add_char buf '0'
  else begin
    add_padded buf fp nf;
    let rec zeros v = if v mod 10 = 0 then 1 + zeros (v / 10) else 0 in
    Buffer.truncate buf (Buffer.length buf - zeros fp)
  end

(* Printf covers zero and the exponents where %.17g switches to
   e-notation; k in [-4, 16] (nearly every served value) never reaches it *)
let add_float buf f =
  let in_range k = k >= -4 && k <= 16 in
  let a = Float.abs f in
  let k0 = if a > 0.0 then int_of_float (Float.floor (Float.log10 a)) else max_int in
  let d0 = if in_range k0 then round_scaled a (16 - k0) else -1 in
  (* log10 may miss by one next to a power of ten *)
  let k = if d0 < 0 then k0 - 1 else if d0 = 0 then k0 + 1 else k0 in
  let d = if k = k0 then d0 else if in_range k then round_scaled a (16 - k) else -1 in
  if d > 0 && d < 100_000_000_000_000_000 then begin
    if f < 0.0 then Buffer.add_char buf '-';
    add_fixed buf d k
  end
  else begin
    (* d = 10^17 is a rounding carry into the next decade: no double
       with k in [-4, 16] reaches it, so Printf may handle it too *)
    let s = Printf.sprintf "%.17g" f in
    Buffer.add_string buf s;
    if not (String.exists (fun c -> c = '.' || c = 'e') s) then Buffer.add_string buf ".0"
  end

let print j =
  let buf = Buffer.create 256 in
  let add_number f =
    if Float.is_finite f then add_float buf f else Buffer.add_string buf "null"
  in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> add_number f
    | Floats a ->
      Buffer.add_char buf '[';
      for i = 0 to Array.length a - 1 do
        if i > 0 then Buffer.add_char buf ',';
        add_number a.(i)
      done;
      Buffer.add_char buf ']'
    | String s ->
      Buffer.add_char buf '"';
      String.iter (fun c -> Buffer.add_string buf (escape c)) s;
      Buffer.add_char buf '"'
    | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          go v)
        l;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          go (String k);
          Buffer.add_char buf ':';
          go v)
        fields;
      Buffer.add_char buf '}'
  in
  go j;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing: plain recursive descent over the string *)

exception Bad of string

(* Arrays and objects nest at most this deep. The protocol's deepest
   message is about 3 levels; without a cap a line of 16 MiB of '['
   recurses 16M frames deep and pins a request worker for seconds. *)
let max_depth = 64

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail "invalid literal"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then fail "unterminated escape");
        (match s.[!pos] with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
           if !pos + 4 >= n then fail "truncated \\u escape";
           let hex = String.sub s (!pos + 1) 4 in
           let code =
             match int_of_string_opt ("0x" ^ hex) with
             | Some c -> c
             | None -> fail "invalid \\u escape"
           in
           pos := !pos + 4;
           (* decode to UTF-8 *)
           if code < 0x80 then Buffer.add_char buf (Char.chr code)
           else if code < 0x800 then begin
             Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
           end
           else begin
             Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
             Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
           end
         | _ -> fail "invalid escape");
        advance ();
        go ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    let is_float = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok in
    if is_float then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail "invalid number"
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> fail "invalid number"
  in
  let open_nested depth =
    if depth >= max_depth then
      fail (Printf.sprintf "nesting deeper than %d levels" max_depth);
    advance ()
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      open_nested depth;
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value (depth + 1) ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value (depth + 1) :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      open_nested depth;
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Framing: incremental newline splitting with a line-length cap *)

let default_max_line = 16 * 1024 * 1024

module Framer = struct
  type item = Line of string | Too_long of int

  type t = {
    max_line : int;
    pending : Buffer.t;   (* the unterminated tail of the input *)
    out : item Queue.t;
    mutable dropped : int;  (* bytes discarded past the cap; 0 = not overflowing *)
  }

  let create ?(max_line = default_max_line) () =
    if max_line < 1 then invalid_arg "Wire.Framer.create: max_line < 1";
    { max_line; pending = Buffer.create 1024; out = Queue.create (); dropped = 0 }

  (* a trailing '\r' belongs to a CRLF terminator, not the payload *)
  let finish_line t =
    let line = Buffer.contents t.pending in
    Buffer.clear t.pending;
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

  let feed t bytes ofs len =
    if ofs < 0 || len < 0 || ofs + len > Bytes.length bytes then
      invalid_arg "Wire.Framer.feed: bad range";
    for i = ofs to ofs + len - 1 do
      let c = Bytes.get bytes i in
      if t.dropped > 0 then
        if c = '\n' then begin
          (* the oversized line finally ended; report its total size *)
          Queue.add (Too_long (t.max_line + t.dropped)) t.out;
          t.dropped <- 0
        end
        else t.dropped <- t.dropped + 1
      else if c = '\n' then Queue.add (Line (finish_line t)) t.out
      else if Buffer.length t.pending >= t.max_line then begin
        (* cap tripped: free the buffered prefix immediately — holding
           it is exactly the OOM a newline-less flood aims for *)
        Buffer.clear t.pending;
        t.dropped <- 1
      end
      else Buffer.add_char t.pending c
    done

  let pop t = Queue.take_opt t.out

  let partial t = Buffer.length t.pending > 0 || t.dropped > 0

  let overflowing t = t.dropped > 0
end

(* ------------------------------------------------------------------ *)
(* Accessors *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Null -> Some Float.nan
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Measurement matrices *)

let mat_to_json m =
  let rows, cols = Linalg.Mat.dims m in
  List (List.init rows (fun i -> Floats (Array.sub m.Linalg.Mat.data (i * cols) cols)))

let mat_of_json ~cols j =
  match j with
  | List [] -> Error "empty batch"
  | List rows ->
    let nrows = List.length rows in
    let m = Linalg.Mat.create nrows cols in
    let rec fill i = function
      | [] -> Ok m
      | List cells :: rest ->
        if List.length cells <> cols then
          Error
            (Printf.sprintf "die %d has %d measurements, expected %d" i
               (List.length cells) cols)
        else begin
          let bad = ref None in
          List.iteri
            (fun k cell ->
              match to_float cell with
              | Some v -> Linalg.Mat.set m i k v
              | None ->
                if !bad = None then
                  bad := Some (Printf.sprintf "die %d entry %d is not a number" i k))
            cells;
          match !bad with None -> fill (i + 1) rest | Some msg -> Error msg
        end
      | _ :: _ -> Error (Printf.sprintf "die %d is not an array" i)
    in
    fill 0 rows
  | _ -> Error "dies must be an array of arrays"
