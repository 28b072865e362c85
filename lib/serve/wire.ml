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
(* Printing: one writer over a growable Bytes *)

(* ---- exact floats

   %.17g's bytes without Printf. For decimal exponent k, a * 10^(16-k)
   is formed exactly as hi + lo: 10^n is a double for n <= 22, a
   product's rounding error is itself a double (Float.fma recovers it),
   and hi >= 10^16 > 2^53 is an integer, so lo alone decides the
   half-to-even rounding to 17 significant digits. *)

(* 10^0 .. 10^22, every one a double *)
let pow10 = Array.init 23 (fun n -> Float.of_string ("1e" ^ string_of_int n))

(* 10^-5 .. 10^17: [decade.(k + 5)] is the double nearest 10^k *)
let decade = Array.init 23 (fun i -> Float.of_string ("1e" ^ string_of_int (i - 5)))

(* the integer nearest a * 10^n, ties to even, when a * 10^n lies in
   [10^16, 10^17); -1 below that range, 0 above it *)
let round_scaled a n =
  let p = pow10.(n) in
  let hi = a *. p in
  let lo = Float.fma a p (-.hi) in
  if hi < 1e16 || (hi <= 1e16 && lo < 0.0) then -1
  else if hi > 1e17 || (hi >= 1e17 && lo >= 0.0) then 0
  else
    (* hi is an even integer (its ulp is at least 2), so lo rounded to
       an integer, ties to even, rounds hi + lo half-to-even; adding and
       removing 1.5 * 2^52 is that rounding for |lo| < 2^51 *)
    int_of_float hi + int_of_float (lo +. 0x1.8p52 -. 0x1.8p52)

(* the 8 digits of [v < 10^8] as one little-endian word of ASCII, by
   SIMD within a register: v splits into two 4-digit lanes, each lane
   into two 2-digit lanes (x / 100 is x * 10486 >> 20 below 10^4), and
   each of those into digits (x / 10 is x * 103 >> 10 below 100). Every
   intermediate stays under 2^62, and so does the word: its top byte is
   at most '9'. *)
let[@inline] digits8 v =
  let hi = v / 10_000 in
  let x = hi lor ((v - (hi * 10_000)) lsl 32) in
  let q = ((x * 10486) lsr 20) land 0x7F_0000_007F in
  let x = ((x - (q * 100)) lsl 16) lor q in
  let q = ((x * 103) lsr 10) land 0xF_000F_000F_000F in
  (((x - (q * 10)) lsl 8) lor q) + 0x3030_3030_3030_3030

(* the head of every value below 1, as one little-endian word *)
let zero_point = String.get_int64_le "0.000000" 0

module Writer = struct
  type t = {
    mutable buf : Bytes.t;
    mutable len : int;
    sink : (Bytes.t -> int -> int -> unit) option;
  }

  let initial = 256

  (* a sinking writer's store: the client's read chunk, and the most
     Unix.write passes to the kernel in one system call *)
  let piece = 65536

  let create ?sink () =
    { buf = Bytes.create (if Option.is_none sink then initial else piece); len = 0; sink }

  let reset w = w.len <- 0

  let contents w = Bytes.sub_string w.buf 0 w.len

  let flush w =
    match w.sink with
    | Some send when w.len > 0 ->
      send w.buf 0 w.len;
      w.len <- 0
    | _ -> ()

  let grow w n =
    let b = Bytes.create (Int.max (w.len + n) (2 * Bytes.length w.buf)) in
    Bytes.blit w.buf 0 b 0 w.len;
    w.buf <- b

  (* Room for [n] more bytes: a sinking writer sends what it holds and
     reuses its store, any other writer at least doubles. A sinking
     writer's store never grows: no write but [add_sub]'s asks for more
     than 23 bytes, and [add_sub] fills it one store at a time. *)
  let[@inline] reserve w n =
    if w.len + n > Bytes.length w.buf then
      if Option.is_none w.sink then grow w n else flush w

  let add_char w c =
    reserve w 1;
    Bytes.set w.buf w.len c;
    w.len <- w.len + 1

  let rec add_sub w s ofs n =
    let room = Bytes.length w.buf - w.len in
    if n <= room || Option.is_none w.sink then begin
      reserve w n;
      Bytes.blit_string s ofs w.buf w.len n;
      w.len <- w.len + n
    end
    else begin
      (* a run longer than a sinking writer's store goes out in pieces *)
      Bytes.blit_string s ofs w.buf w.len room;
      w.len <- w.len + room;
      flush w;
      add_sub w s (ofs + room) (n - room)
    end

  let add_string w s = add_sub w s 0 (String.length s)

  (* %.17g's fixed notation of the 17 digits [d] at decimal exponent
     [k] in [-4, 16]: the leading digit and two words of 8 go down one
     byte right of where the value starts (k >= 0) or after "0." and
     -k-1 zeros (k < 0); the k+1 integer digits then slide left over
     the spare byte and the point takes their last place. Trailing
     zeros are cut back to the first fraction digit, so the value
     re-parses as a Float. *)
  let add_fixed w neg d k =
    (* a sign, then at most "0.000" and the 17 digits *)
    reserve w 23;
    let b = w.buf in
    if neg then Bytes.set b w.len '-';
    let p = if neg then w.len + 1 else w.len in
    let s =
      if k < 0 then begin
        Bytes.set_int64_le b p zero_point;
        p + 1 - k
      end
      else p + 1
    in
    let h = d / 100_000_000 in
    let d0 = h / 100_000_000 in
    Bytes.set_uint8 b s (48 + d0);
    Bytes.set_int64_le b (s + 1) (Int64.of_int (digits8 (h - (d0 * 100_000_000))));
    Bytes.set_int64_le b (s + 9) (Int64.of_int (digits8 (d - (h * 100_000_000))));
    (* the first fraction digit *)
    let frac =
      if k < 0 then s
      else begin
        for i = p to p + k do
          Bytes.set b i (Bytes.get b (i + 1))
        done;
        Bytes.set b (p + k + 1) '.';
        p + k + 2
      end
    in
    let e = ref (s + 17) in
    if frac = !e then begin
      (* k = 16: no fraction digit was printed *)
      Bytes.set b !e '0';
      incr e
    end
    else
      while !e - 1 > frac && Bytes.get b (!e - 1) = '0' do
        decr e
      done;
    w.len <- !e

  let in_range k = k >= -4 && k <= 16

  (* The decimal exponent k comes from the binary one e2: floor(e2 log10
     2), which (e2 * 78913) asr 18 is for every double's exponent, plus
     one when [a] reaches the next power of ten. The off-by-one
     [round_scaled] reports covers an inexact power of ten. Printf
     covers zero, subnormals and the exponents where %.17g switches to
     e-notation; k in [-4, 16] (nearly every served value) never
     reaches it. *)
  let add_float w f =
    let a = Float.abs f in
    let e2 = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float a) 52) - 1023 in
    let k0 = (e2 * 78913) asr 18 in
    let k0 = if k0 >= -5 && k0 <= 16 && a >= decade.(k0 + 6) then k0 + 1 else k0 in
    let d0 = if in_range k0 then round_scaled a (16 - k0) else -1 in
    let k = if d0 < 0 then k0 - 1 else if d0 = 0 then k0 + 1 else k0 in
    let d = if k = k0 then d0 else if in_range k then round_scaled a (16 - k) else -1 in
    if d > 0 && d < 100_000_000_000_000_000 then add_fixed w (f < 0.0) d k
    else begin
      (* d = 10^17 is a rounding carry into the next decade: no double
         with k in [-4, 16] reaches it, so Printf may handle it too *)
      let s = Printf.sprintf "%.17g" f in
      add_string w s;
      if not (String.exists (fun c -> c = '.' || c = 'e') s) then add_string w ".0"
    end

  let add_number w f = if Float.is_finite f then add_float w f else add_string w "null"

  (* a JSON string: runs that need no escape are copied whole *)
  let add_escaped w s =
    add_char w '"';
    let start = ref 0 in
    String.iteri
      (fun i c ->
        if c = '"' || c = '\\' || Char.code c < 0x20 then begin
          add_sub w s !start (i - !start);
          start := i + 1;
          add_string w
            (match c with
             | '"' -> "\\\""
             | '\\' -> "\\\\"
             | '\n' -> "\\n"
             | '\r' -> "\\r"
             | '\t' -> "\\t"
             | c -> Printf.sprintf "\\u%04x" (Char.code c))
        end)
      s;
    add_sub w s !start (String.length s - !start);
    add_char w '"'

  let rec json w = function
    | Null -> add_string w "null"
    | Bool b -> add_string w (if b then "true" else "false")
    | Int i -> add_string w (string_of_int i)
    | Float f -> add_number w f
    | Floats a ->
      add_char w '[';
      for i = 0 to Array.length a - 1 do
        if i > 0 then add_char w ',';
        add_number w a.(i)
      done;
      add_char w ']'
    | String s -> add_escaped w s
    | List l ->
      add_char w '[';
      List.iteri
        (fun i v ->
          if i > 0 then add_char w ',';
          json w v)
        l;
      add_char w ']'
    | Obj fields ->
      add_char w '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then add_char w ',';
          add_escaped w k;
          add_char w ':';
          json w v)
        fields;
      add_char w '}'
end

let print j =
  let w = Writer.create () in
  Writer.json w j;
  Writer.contents w

(* ------------------------------------------------------------------ *)
(* Parsing: plain recursive descent over the string *)

exception Bad of string

(* Arrays and objects nest at most this deep. The protocol's deepest
   message is about 3 levels; without a cap a line of 16 MiB of '['
   recurses 16M frames deep and pins a request worker for seconds. *)
let max_depth = 64

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

(* ---- exact numbers

   [decimal r neg d e] stores in [r.(0)] the double nearest
   (-1)^neg * d * 10^e, ties to even (the value strtod, and so
   [float_of_string], gives), for 0 <= d < 10^18, and says whether it
   did; it declines where that is not proven here and the caller must
   fall back. The slot keeps the result unboxed:
   - d < 2^53 and |e| <= 22: both operands of one IEEE operation are
     exact, so its rounding is the answer (Clinger's fast path);
   - d >= 2^53 and -22 <= e < 0 (17 printed digits in fixed notation):
     with d = dh + dl split so both are doubles and p = 10^-e, q = dh/p
     leaves an exact remainder r = dh - q*p (Float.fma), and
     y = q + (r + dl)/p is within an ulp or so of d/p. y is accepted
     when the residual y*p - d, formed exactly with fma and Sterbenz
     subtraction, is under 0.4999 * p times the smaller gap to y's
     neighbours: then d/p lies strictly inside y's rounding interval.
     The 0.0001 margin covers the one rounding of the residual's last
     sum and of the bound itself, and rejects near-ties. *)

let two53 = 1 lsl 53

let verified_quotient (r : float array) neg d p =
  let dh = float_of_int (d land lnot 0x7FF) and dl = float_of_int (d land 0x7FF) in
  let q = dh /. p in
  let rem = Float.fma (-.q) p dh in
  let y = q +. ((rem +. dl) /. p) in
  let hi = y *. p in
  let resid = (hi -. dh -. dl) +. Float.fma y p (-.hi) in
  (* y > 0 is normal, so its neighbours are one bit pattern away *)
  let bits = Int64.bits_of_float y in
  let gap =
    Float.min
      (Int64.float_of_bits (Int64.succ bits) -. y)
      (y -. Int64.float_of_bits (Int64.pred bits))
  in
  Float.abs resid < 0.4999 *. p *. gap
  && begin
    r.(0) <- (if neg then -.y else y);
    true
  end

let decimal (r : float array) neg d e =
  if d = 0 then begin
    r.(0) <- (if neg then -0.0 else 0.0);
    true
  end
  else if d < two53 && e >= -22 && e <= 22 then begin
    let x = if e >= 0 then float_of_int d *. pow10.(e) else float_of_int d /. pow10.(-e) in
    r.(0) <- (if neg then -.x else x);
    true
  end
  else d >= two53 && e < 0 && e >= -22 && verified_quotient r neg d pow10.(-e)

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let at c = !pos < n && s.[!pos] = c in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c = if at c then advance () else fail (Printf.sprintf "expected '%c'" c) in
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
  (* a number's value: [number ()] says whether it is a float, in
     [num.(0)], or an int, in [!inum]; the float slot keeps it unboxed *)
  let num = [| 0.0 |] and inum = ref 0 in
  (* the general reader: the whole run of number characters through
     [int_of_string]/[float_of_string]; it defines every result and
     error message, and [number] below only takes the tokens it reads
     identically *)
  let number_general () =
    let start = !pos in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    let is_float = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok in
    if is_float then begin
      match float_of_string_opt tok with
      | Some f ->
        num.(0) <- f;
        true
      | None -> fail "invalid number"
    end
    else
      match int_of_string_opt tok with
      | Some i ->
        inum := i;
        false
      | None -> fail "invalid number"
  in
  (* -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)? in one pass, when it spans
     the whole run of number characters: an int of at most 18 digits,
     or a float of at most 18 significant digits that [decimal] reads *)
  let number () =
    let start = !pos in
    let neg = s.[start] = '-' in
    let i = ref (if neg then start + 1 else start) in
    let int_start = !i in
    (* the mantissa's digits and at most one '.' among them; [sig_digits]
       counts from the first nonzero digit, and past 18 [d] is unused *)
    let d = ref 0 and sig_digits = ref 0 and dot = ref (-1) and more = ref true in
    while !more && !i < n do
      match s.[!i] with
      | '0' .. '9' as c ->
        d := (!d * 10) + Char.code c - 48;
        if !sig_digits > 0 || c <> '0' then incr sig_digits;
        incr i
      | '.' when !dot < 0 ->
        dot := !i;
        incr i
      | _ -> more := false
    done;
    let int_end = if !dot < 0 then !i else !dot in
    let frac_digits = if !dot < 0 then 0 else !i - !dot - 1 in
    let ok = ref (int_end > int_start && (!dot < 0 || frac_digits > 0)) in
    let has_exp = !i < n && (s.[!i] = 'e' || s.[!i] = 'E') in
    (* an exponent of 10^6 or more goes to the general reader rather
       than saturating: a run of leading fraction zeros of any length
       can cancel it, so only its exact value may be used *)
    let e = ref 0 in
    if has_exp then begin
      incr i;
      let exp_neg = !i < n && s.[!i] = '-' in
      if exp_neg || (!i < n && s.[!i] = '+') then incr i;
      let exp_start = !i in
      while !i < n && match s.[!i] with '0' .. '9' -> true | _ -> false do
        if !e < 100_000 then e := (!e * 10) + Char.code s.[!i] - 48 else ok := false;
        incr i
      done;
      if !i = exp_start then ok := false;
      if exp_neg then e := - !e
    end;
    let tok_end = !i in
    if (not !ok) || (tok_end < n && is_num_char s.[tok_end]) then number_general ()
    else if !dot < 0 && not has_exp then
      if tok_end - int_start > 18 then number_general ()
      else begin
        pos := tok_end;
        inum := if neg then - !d else !d;
        false
      end
    else if !sig_digits <= 18 && decimal num neg !d (!e - frac_digits) then begin
      pos := tok_end;
      true
    end
    else number_general ()
  in
  (* the cells of a float row so far, reused by every row: a row is
     filled only while each of its cells is a number, so no other array
     is read before it is copied out or handed to [List] *)
  let row = ref [||] in
  let push k x =
    if k = Array.length !row then begin
      let bigger = Array.make (Int.max 64 (2 * k)) 0.0 in
      Array.blit !row 0 bigger 0 k;
      row := bigger
    end;
    !row.(k) <- x
  in
  (* cells [0, k) of the row as [Float]s, last first *)
  let boxed k =
    let rec go j acc = if j = k then acc else go (j + 1) (Float !row.(j) :: acc) in
    go 0 []
  in
  let open_nested depth =
    if depth >= max_depth then
      fail (Printf.sprintf "nesting deeper than %d levels" max_depth);
    advance ()
  in
  let rec parse_value depth =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match s.[!pos] with
    | '-' | '0' .. '9' -> if number () then Float num.(0) else Int !inum
    | '"' -> String (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '[' ->
      open_nested depth;
      skip_ws ();
      if at ']' then begin
        advance ();
        List []
      end
      else float_row depth 0
    | '{' ->
      open_nested depth;
      skip_ws ();
      if at '}' then begin
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
        while at ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | c -> fail (Printf.sprintf "unexpected character '%c'" c)
  (* An array is read as a [Floats] row while every cell is a number
     token the general reader returns as [Float]. The first other cell
     turns the cells so far into [Float]s and the rest of the array is
     read as a [List], from that cell on, by the same steps as every
     array, so results and error offsets do not depend on the path. *)
  and float_row depth k =
    skip_ws ();
    if !pos < n && (match s.[!pos] with '-' | '0' .. '9' -> true | _ -> false) then
      if number () then begin
        push k num.(0);
        skip_ws ();
        if at ',' then begin
          advance ();
          float_row depth (k + 1)
        end
        else begin
          expect ']';
          Floats (Array.sub !row 0 (k + 1))
        end
      end
      else list_rest depth (Int !inum :: boxed k)
    else
      let cells = boxed k in
      list_rest depth (parse_value (depth + 1) :: cells)
  (* the rest of an array after its cells [items], last first *)
  and list_rest depth items =
    skip_ws ();
    if at ',' then begin
      advance ();
      list_rest depth (parse_value (depth + 1) :: items)
    end
    else begin
      expect ']';
      List (List.rev items)
    end
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
    mutable store : Bytes.t;  (* [0, len): the unterminated tail of the input *)
    mutable len : int;
    out : item Queue.t;
    mutable dropped : int;  (* bytes discarded past the cap; 0 = not overflowing *)
  }

  (* a store grown past this is given back once its line is out *)
  let keep = 4 * 1024 * 1024

  let create ?(max_line = default_max_line) () =
    if max_line < 1 then invalid_arg "Wire.Framer.create: max_line < 1";
    { max_line; store = Bytes.empty; len = 0; out = Queue.create (); dropped = 0 }

  let release t =
    t.store <- Bytes.empty;
    t.len <- 0

  (* room for [n] more bytes; the store never outgrows the cap *)
  let append t bytes ofs n =
    if t.len + n > Bytes.length t.store then begin
      let size = Int.max (t.len + n) (Int.max 1024 (2 * Bytes.length t.store)) in
      let b = Bytes.create (Int.min t.max_line size) in
      Bytes.blit t.store 0 b 0 t.len;
      t.store <- b
    end;
    Bytes.blit bytes ofs t.store t.len n;
    t.len <- t.len + n

  (* bytes [ofs, ofs + n) as a line: a trailing '\r' belongs to a CRLF
     terminator, not the payload *)
  let line b ofs n =
    let n = if n > 0 && Bytes.get b (ofs + n - 1) = '\r' then n - 1 else n in
    Line (Bytes.sub_string b ofs n)

  (* The first '\n' in [bytes] at or after [i], or [stop] if none is
     before it: the caller's buffer may hold stale bytes past [stop].
     Eight bytes at a time: x = w xor "\n\n\n\n\n\n\n\n" has a zero byte
     where w has a newline, and (x - 0x01..01) land (lnot x) land
     0x80..80 is nonzero exactly when x has a zero byte (a borrow only
     sets bits above one). *)
  let newline bytes i stop =
    let i = ref i in
    let word = ref true in
    while !word && !i + 8 <= stop do
      let x = Int64.logxor (Bytes.get_int64_le bytes !i) 0x0A0A0A0A0A0A0A0AL in
      let zero = Int64.logand (Int64.sub x 0x0101010101010101L) (Int64.lognot x) in
      if Int64.logand zero 0x8080808080808080L = 0L then i := !i + 8
      else word := false
    done;
    while !i < stop && Bytes.get bytes !i <> '\n' do
      incr i
    done;
    !i

  (* A line that ends in the chunk it started in is copied out once,
     straight from the chunk; a line split across chunks is gathered in
     the store and copied out once when its newline comes. The cap
     keeps the byte-at-a-time rule: a line fills the store up to
     [max_line] bytes, the byte that finds it full frees it and starts
     the discard count, and every later byte up to the newline adds
     one. *)
  let feed t bytes ofs len =
    if ofs < 0 || len < 0 || ofs + len > Bytes.length bytes then
      invalid_arg "Wire.Framer.feed: bad range";
    let stop = ofs + len in
    let i = ref ofs in
    while !i < stop do
      let nl = newline bytes !i stop in
      let run = nl - !i in
      if t.dropped > 0 then t.dropped <- t.dropped + run
      else if run > t.max_line - t.len then begin
        (* cap tripped: give the buffered prefix back now — holding it
           is exactly the OOM a newline-less flood aims for *)
        t.dropped <- run - (t.max_line - t.len);
        release t
      end
      else if nl = stop || t.len > 0 then append t bytes !i run;
      if nl < stop then begin
        if t.dropped > 0 then begin
          (* the oversized line finally ended; report its total size *)
          Queue.add (Too_long (t.max_line + t.dropped)) t.out;
          t.dropped <- 0
        end
        else if t.len = 0 then Queue.add (line bytes !i run) t.out
        else begin
          Queue.add (line t.store 0 t.len) t.out;
          if Bytes.length t.store > keep then release t else t.len <- 0
        end
      end;
      i := nl + 1
    done

  let pop t = Queue.take_opt t.out

  let partial t = t.len > 0 || t.dropped > 0

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
    let wrong_width i k =
      Error (Printf.sprintf "die %d has %d measurements, expected %d" i k cols)
    in
    let rec fill i = function
      | [] -> Ok m
      | Floats cells :: rest ->
        if Array.length cells <> cols then wrong_width i (Array.length cells)
        else begin
          Array.blit cells 0 m.Linalg.Mat.data (i * cols) cols;
          fill (i + 1) rest
        end
      | List cells :: rest ->
        if List.length cells <> cols then wrong_width i (List.length cells)
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
