(* Integration: the prediction server on a real Unix-domain socket,
   checked bit-for-bit against the in-process predictors, plus wire
   format round trips and per-connection error isolation. *)

let artifact =
  lazy (Helpers.served_artifact ~fingerprint:"test:serve" ~seed:99 ~dies:40)

let with_server ?config ?reload_from f =
  Helpers.with_server ?config ?reload_from (Lazy.force artifact) f

let sock_path = function
  | Serve.Unix_sock p -> p
  | Serve.Tcp _ -> assert false

(* raw line-level access, for sending deliberately malformed requests *)
let raw_connect path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) when tries > 0 ->
      Unix.close fd;
      Thread.delay 0.1;
      go (tries - 1)
  in
  go 50

let raw_send fd s =
  let b = Bytes.of_string s in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done

let raw_read_line fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec read_line () =
    let n = Unix.read fd chunk 0 (Bytes.length chunk) in
    if n = 0 then Buffer.contents buf
    else begin
      let s = Bytes.sub_string chunk 0 n in
      match String.index_opt s '\n' with
      | Some i ->
        Buffer.add_string buf (String.sub s 0 i);
        Buffer.contents buf
      | None ->
        Buffer.add_string buf s;
        read_line ()
    end
  in
  read_line ()

let raw_roundtrip fd line =
  raw_send fd (line ^ "\n");
  raw_read_line fd

(* response triage: ok flag and the failure-code vocabulary *)
let response_ok r =
  match Serve.Wire.parse r with
  | Ok j -> Serve.Wire.member "ok" j = Some (Serve.Wire.Bool true)
  | Error _ -> false

let response_code r =
  match Serve.Wire.parse r with
  | Ok j -> Serve.Wire.member "code" j
  | Error _ -> None

let check_infra_code label r code =
  if response_code r <> Some (Serve.Wire.String code) then
    Alcotest.failf "%s: expected string code %S, got %s" label code r

let stat_int c key =
  match Serve.Client.stats c with
  | Error m -> Alcotest.failf "stats failed: %s" m
  | Ok j ->
    (match Serve.Wire.member key j with
     | Some (Serve.Wire.Int n) -> n
     | _ -> Alcotest.failf "stats missing int field %S" key)

(* ------------------------------------------------------------------ *)

(* the tree [parse] gives for [j]: a non-empty list whose cells are all
   [Float] comes back as one [Floats] row, every other list as a list *)
let rec as_parsed j =
  let open Serve.Wire in
  match j with
  | List (_ :: _ as l) when List.for_all (function Float _ -> true | _ -> false) l ->
    Floats (Array.of_list (List.map (function Float f -> f | _ -> assert false) l))
  | List l -> List (List.map as_parsed l)
  | Obj kv -> Obj (List.map (fun (k, v) -> (k, as_parsed v)) kv)
  | Null | Bool _ | Int _ | Float _ | Floats _ | String _ -> j

let test_wire_roundtrip () =
  let open Serve.Wire in
  let samples =
    [
      Null;
      Bool true;
      Int (-42);
      Float 1.0e-17;
      Float 425.00000000000301;
      String "a \"quoted\" \\ line\nwith\tcontrol \x01 bytes";
      List [ Int 1; Null; Float Float.pi ];
      Obj [ ("op", String "predict"); ("dies", List [ List [ Float 1.5 ] ]) ];
    ]
  in
  List.iter
    (fun j ->
      match parse (print j) with
      | Ok j' -> Alcotest.(check bool) "parse (print j) = j" true (as_parsed j = j')
      | Error m -> Alcotest.failf "re-parse failed: %s on %s" m (print j))
    samples;
  (match parse "{\"a\":1} trailing" with
   | Ok _ -> Alcotest.fail "trailing garbage accepted"
   | Error _ -> ());
  match parse "[1," with
  | Ok _ -> Alcotest.fail "unterminated array accepted"
  | Error _ -> ()

(* Printf's own float formatter: [Printf.sprintf "%.17g"] is this call
   behind a format interpreter that costs a third of the corpus test *)
external format_float : string -> float -> string = "caml_format_float"

(* the bytes the wire's float writer must reproduce: %.17g, plus ".0"
   when that leaves no '.' or exponent *)
let rec reference_print j =
  let open Serve.Wire in
  match j with
  | Float f when Float.is_finite f ->
    let s = format_float "%.17g" f in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"
  | Float _ -> "null"
  | Floats a -> reference_print (List (Array.to_list (Array.map (fun f -> Float f) a)))
  | List l -> "[" ^ String.concat "," (List.map reference_print l) ^ "]"
  | Obj kv ->
    let field (k, v) = print (String k) ^ ":" ^ reference_print v in
    "{" ^ String.concat "," (List.map field kv) ^ "}"
  | (Null | Bool _ | Int _ | String _) -> print j

(* A fixed-seed corpus of 1M+ doubles: random bit patterns (every
   exponent, subnormals, NaNs, infinities), uniform values in each
   decade 1e-6..1e18, powers of ten and their neighbours, exact
   half-way ties at 17 digits, and the doubles just below a power of ten
   whose 17-digit rounding carries into the next decade. *)
let iter_float_corpus f =
  let rng = Rng.create 5 in
  let signed x = if Rng.int rng 2 = 0 then x else -.x in
  List.iter f [ 0.0; -0.0; Float.min_float; Float.succ 0.0; Float.max_float ];
  for _ = 1 to 60_000 do
    f (Int64.float_of_bits (Rng.bits64 rng))
  done;
  for d = -6 to 17 do
    for _ = 1 to 35_000 do
      f (signed (Float.pow 10.0 (float_of_int d) *. (1.0 +. (9.0 *. Rng.float rng))))
    done
  done;
  for k = -323 to 308 do
    let p = float_of_string (Printf.sprintf "1e%d" k) in
    List.iter f [ p; Float.pred p; Float.succ p; -.p ]
  done;
  (* odd n / 2^j is exact, and its decimal expansion n * 5^j * 10^-j
     has 18 significant digits ending in 5 when n * 5^j has 18 digits *)
  for j = 1 to 24 do
    let p5 = Float.pow 5.0 (float_of_int j) in
    let lo = Float.ceil (1e17 /. p5) and hi = Float.min (1e18 /. p5) 0x1p53 in
    if lo < hi then
      for _ = 1 to 5_000 do
        let n = Float.floor (lo +. (Rng.float rng *. (hi -. lo))) in
        let n = if Float.rem n 2.0 = 0.0 then n +. 1.0 else n in
        f (signed (Float.ldexp n (-j)))
      done
  done

(* [json] through a writer with a sink: the pieces it hands the sink,
   then its flushed tail, concatenated. Every piece before the tail
   must be a full store: more than 64 KiB less the largest single
   write (23 bytes), and at most 64 KiB. *)
let streamed json =
  let out = Buffer.create 4096 in
  let bad_piece = ref None in
  let sink b ofs len =
    if (len <= 65536 - 23 || len > 65536) && Option.is_none !bad_piece then
      bad_piece := Some len;
    Buffer.add_subbytes out b ofs len
  in
  let w = Serve.Wire.Writer.create ~sink () in
  Serve.Wire.Writer.json w json;
  (match !bad_piece with
   | Some len -> Alcotest.failf "a sinking writer sent a piece of %d bytes" len
   | None -> ());
  Serve.Wire.Writer.flush w;
  Buffer.contents out

(* every value prints as %.17g does; every 4th (strtod dominates the
   cost) also re-parses to the same bits. The corpus is also printed in
   rows of 4096: as a Floats row through [print], through one reused
   writer whose previous output, a string of '0's, was longer than the
   row, so a stale byte left inside the row would show, and in pieces
   through a writer with a sink (a row is longer than its store). *)
let test_wire_float_bits () =
  let module W = Serve.Wire in
  let count = ref 0 in
  let width = 4096 in
  let row = Array.make width 0.0 and refs = Array.make width "" and filled = ref 0 in
  let w = W.Writer.create () in
  let check_row () =
    let a = Array.sub row 0 !filled in
    let expected = "[" ^ String.concat "," (Array.to_list (Array.sub refs 0 !filled)) ^ "]" in
    let first_diff got =
      let rec go i = if i < String.length got && got.[i] = expected.[i] then go (i + 1) else i in
      go 0
    in
    let printed = W.print (W.Floats a) in
    if printed <> expected then
      Alcotest.failf "a Floats row of the corpus prints differently from byte %d"
        (first_diff printed);
    W.Writer.reset w;
    W.Writer.json w (W.String (String.make (String.length expected + 64) '0'));
    W.Writer.reset w;
    W.Writer.json w (W.Floats a);
    let reused = W.Writer.contents w in
    if reused <> expected then
      Alcotest.failf "a reused writer prints a corpus row differently from byte %d"
        (first_diff reused);
    let sent = streamed (W.Floats a) in
    if sent <> expected then
      Alcotest.failf "a sinking writer streams a corpus row differently from byte %d"
        (first_diff sent);
    filled := 0
  in
  iter_float_corpus (fun x ->
      incr count;
      let j = W.Float x in
      let line = W.print j in
      let expected = reference_print j in
      if line <> expected then Alcotest.failf "%h printed %s, %%.17g gives %s" x line expected;
      row.(!filled) <- x;
      refs.(!filled) <- expected;
      incr filled;
      if !filled = width then check_row ();
      if !count land 3 = 0 then
        match W.parse line with
        | Ok (W.Float y) ->
          if Int64.bits_of_float x <> Int64.bits_of_float y then
            Alcotest.failf "float %h lost bits -> %h" x y
        | Ok W.Null when not (Float.is_finite x) -> ()
        | Ok j -> Alcotest.failf "float re-parsed as %s" (W.print j)
        | Error m -> Alcotest.failf "float re-parse error: %s" m);
  if !filled > 0 then check_row ();
  Alcotest.(check bool) "corpus has 1M+ doubles" true (!count >= 1_000_000)

(* Floats rows print exactly like the boxed tree of Float/Null cells
   and decode back to the matrix, non-finite entries as NaN *)
let test_wire_unboxed_rows () =
  let rng = Rng.create 11 in
  (* cell k (row-major, counted from [first]) is NaN, +inf, -inf when
     k mod 16 is 0, 1, 2, so each shape but 1x1 holds all three *)
  let check_mat (first, rows, cols) =
    let m =
      Linalg.Mat.init rows cols (fun i j ->
          match (first + (i * cols) + j) mod 16 with
          | 0 -> Float.nan
          | 1 -> Float.infinity
          | 2 -> Float.neg_infinity
          | _ -> 500.0 *. Rng.gaussian rng)
    in
    let boxed =
      Serve.Wire.List
        (List.init rows (fun i ->
             Serve.Wire.List
               (List.init cols (fun j ->
                    let v = Linalg.Mat.get m i j in
                    if Float.is_finite v then Serve.Wire.Float v else Serve.Wire.Null))))
    in
    let line = Serve.Wire.print (Serve.Wire.mat_to_json m) in
    let label = Printf.sprintf "%dx%d from %d" rows cols first in
    Alcotest.(check bool) (label ^ " prints like the boxed tree") true
      (line = reference_print boxed);
    let missing = Linalg.Mat.map (fun v -> if Float.is_finite v then v else Float.nan) m in
    match Result.bind (Serve.Wire.parse line) (Serve.Wire.mat_of_json ~cols) with
    | Ok back ->
      Alcotest.(check bool) (label ^ " decodes bit-exactly") true
        (Linalg.Mat.bits_equal back missing)
    | Error e -> Alcotest.failf "%s: %s" label e
  in
  List.iter check_mat
    [ (0, 1, 1); (1, 1, 1); (2, 1, 1); (3, 1, 1); (0, 1, 37); (0, 37, 1); (0, 16, 2000) ];
  (* a served predict response is the reference rendering on both routes *)
  let store, clean = Lazy.force artifact in
  let server = Serve.create store in
  let faulty = Linalg.Mat.copy clean in
  Linalg.Mat.set faulty 0 0 Float.nan;
  List.iter
    (fun (route, dies) ->
      let request =
        Serve.Wire.print
          (Serve.Wire.Obj
             [ ("op", Serve.Wire.String "predict"); ("dies", Serve.Wire.mat_to_json dies) ])
      in
      let response = Serve.handle server request in
      match Serve.Wire.parse response with
      | Ok j ->
        Alcotest.(check bool) (route ^ " route taken") true
          (Serve.Wire.member "robust" j = Some (Serve.Wire.Bool (route = "robust")));
        Alcotest.(check string) (route ^ " response bytes") (reference_print j) response
      | Error e -> Alcotest.failf "%s response: %s" route e)
    [ ("clean", clean); ("robust", faulty) ]

(* nesting is capped, so a 16 MiB line of '[' (the framer's default
   cap) fails fast with a parse error instead of recursing per byte *)
let test_wire_depth_cap () =
  let nested k = String.make k '[' ^ String.make k ']' in
  (match Serve.Wire.parse (nested 64) with
   | Ok _ -> ()
   | Error m -> Alcotest.failf "64 levels rejected: %s" m);
  (match Serve.Wire.parse (nested 65) with
   | Ok _ -> Alcotest.fail "65 levels accepted"
   | Error _ -> ());
  let line = String.make Serve.Wire.default_max_line '[' in
  let t0 = Unix.gettimeofday () in
  let res = Serve.Wire.parse line in
  let dt = Unix.gettimeofday () -. t0 in
  (match res with
   | Ok _ -> Alcotest.fail "16 MiB of '[' accepted"
   | Error m ->
     Alcotest.(check bool) ("typed depth error: " ^ m) true
       (String.starts_with ~prefix:"nesting deeper" m));
  if dt >= 0.1 then Alcotest.failf "16 MiB of '[' took %.3f s to reject" dt

(* ------------------------------------------------------------------ *)
(* [parse] against the parser as it stood before numbers were scanned
   in place, when every number went through [int_of_string] or
   [float_of_string] and every array was a list: the two must agree on
   every input, tree for tree (floats by their bits, the reference's
   all-[Float] lists read as [Floats] rows) and error message for error
   message. *)

exception Reference_bad of string

let reference_parse s =
  let open Serve.Wire in
  let max_depth = 64 in
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Reference_bad (Printf.sprintf "%s at offset %d" msg !pos)) in
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
  | exception Reference_bad msg -> Error msg

let rec json_bits_equal a b =
  let open Serve.Wire in
  let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  match (a, b) with
  | Float x, Float y -> same x y
  | Floats x, Floats y -> Array.length x = Array.length y && Array.for_all2 same x y
  | List x, List y -> List.length x = List.length y && List.for_all2 json_bits_equal x y
  | Obj x, Obj y ->
    List.length x = List.length y
    && List.for_all2 (fun (k, v) (k', v') -> String.equal k k' && json_bits_equal v v') x y
  | (Null | Bool _ | Int _ | String _), _ -> a = b
  | (Float _ | Floats _ | List _ | Obj _), _ -> false

let rec show_json j =
  let open Serve.Wire in
  match j with
  | Float x -> Printf.sprintf "%h" x
  | Floats a ->
    "floats[" ^ String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") a)) ^ "]"
  | List l -> "[" ^ String.concat "," (List.map show_json l) ^ "]"
  | Obj kv -> "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ ":" ^ show_json v) kv) ^ "}"
  | _ -> print j

(* how [parse] and the reference differ on [line], if they do *)
let parse_disagreement line =
  match Serve.Wire.parse line with
  | exception e -> Some (Printf.sprintf "parse raised %s on %S" (Printexc.to_string e) line)
  | got ->
    let show = function Ok j -> show_json j | Error m -> "error: " ^ m in
    (match (got, Result.map as_parsed (reference_parse line)) with
     | Ok a, Ok b when json_bits_equal a b -> None
     | Error a, Error b when String.equal a b -> None
     | _, want ->
       Some (Printf.sprintf "%S parsed as %s, the reference gives %s" line (show got) (show want)))

let check_parse_agrees label line =
  Option.iter (Alcotest.failf "%s: %s" label) (parse_disagreement line)

(* number tokens inside and outside the canonical grammar: 0-25 digit
   mantissas (leading zeros too), exponents -400..400, doubled signs,
   bare '.' and 'e', and junk after the token *)
let random_number_token rng =
  let digits k = String.init k (fun _ -> Char.chr (48 + Rng.int rng 10)) in
  let pick a = a.(Rng.int rng (Array.length a)) in
  let sign = pick [| ""; ""; ""; "-"; "-"; "--"; "-+" |] in
  let zeros = pick [| ""; ""; ""; ""; "0"; "00"; "000000" |] in
  let int_part = zeros ^ digits (pick [| 0; 1; 1; 2; 5; 15; 16; 17; 18; 19; 25 |]) in
  let frac =
    match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 -> ""
    | 4 -> "."
    | _ -> "." ^ digits (1 + Rng.int rng 25)
  in
  let exp =
    match Rng.int rng 8 with
    | 0 | 1 | 2 | 3 -> ""
    | 4 -> pick [| "e"; "E"; "e+"; "e-" |]
    | _ ->
      pick [| "e"; "E" |] ^ pick [| ""; "+"; "-" |] ^ string_of_int (Rng.int rng 401)
  in
  let junk = if Rng.int rng 20 = 0 then pick [| "."; ".5"; "e"; "-"; "1.5"; "+1" |] else "" in
  sign ^ int_part ^ frac ^ exp ^ junk

(* a fraction behind a long run of leading zeros whose exponent all but
   cancels it, so the scanner's own exponent arithmetic decides the
   value: 1k-200k zeros, 1-18 digits, and e - (fraction digits) in
   [-22, 22]; half the time the exponent has 1-3 more digits, which a
   scanner that stopped reading them would take for the cancelling one *)
let cancelling_exponent_token rng =
  let zeros = 1_000 + Rng.int rng 199_001 in
  let k = 1 + Rng.int rng 18 in
  let digits =
    String.init k (fun j -> if j = 0 then Char.chr (49 + Rng.int rng 9) else Char.chr (48 + Rng.int rng 10))
  in
  let sign = if Rng.int rng 2 = 0 then "" else "-" in
  let exp = string_of_int (zeros + k + Rng.int rng 45 - 22) in
  let extra = if Rng.int rng 2 = 0 then "" else string_of_int (Rng.int rng 1000) in
  Printf.sprintf "%s0.%s%se%s%s%s" sign (String.make zeros '0') digits
    (if Rng.int rng 2 = 0 then "" else "+") exp extra

(* the exact decimal of a midpoint between adjacent doubles in
   [2^50, 2^55), of the decimals an eighth away, and of their last-digit
   neighbours: 16-19 significant digits, where the exact ties are the
   ones the verified path must leave to the fallback *)
let random_tie_tokens rng =
  let x = Float.ldexp (1.0 +. Rng.float rng) (50 + Rng.int rng 5) in
  let eighths = int_of_float (x *. 8.0) + int_of_float ((Float.succ x -. x) *. 4.0) in
  (* a fraction of thousandths without its trailing zeros *)
  let frac t =
    let s = Printf.sprintf "%03d" t in
    let k = ref 3 in
    while !k > 1 && s.[!k - 1] = '0' do decr k done;
    String.sub s 0 !k
  in
  List.concat_map
    (fun m ->
      let whole = m / 8 and thousandths = m mod 8 * 125 in
      [ Printf.sprintf "%d.%s" whole (frac thousandths);
        Printf.sprintf "%d.%s" whole (frac (thousandths + 1));
        Printf.sprintf "%d.999" (whole - 1);
        Printf.sprintf "-%d.%s" whole (frac thousandths) ])
    [ eighths; eighths - 1; eighths + 1 ]

(* decimals d * 10^-22 a hair from a midpoint between adjacent doubles,
   where the quotient [parse] forms rounds the wrong way about a third
   of the time, so only its residual check keeps the bits: when
   d * 2^t = (2a+1) * 5^22 + delta with 2a+1 in [2^53, 2^54), d / 10^22
   lies delta / (2 * 5^22), about 2^-52, ulps from the midpoint
   (2a+1) * 2^-(t+23). d is solved for modulo 5^22. *)
let near_tie_tokens rng =
  let m = 2384185791015625 (* 5^22 *) in
  let rec mulmod a b acc =
    if b = 0 then acc
    else mulmod ((a + a) mod m) (b lsr 1) (if b land 1 = 1 then (acc + a) mod m else acc)
  in
  let rec powmod b e =
    if e = 0 then 1
    else
      let h = powmod (mulmod b b 0) (e / 2) in
      if e land 1 = 1 then mulmod h b 0 else h
  in
  let t = 45 + Rng.int rng 7 in
  let delta = if Rng.int rng 2 = 0 then 1 else m - 1 in
  (* delta * 2^-t mod 5^22; 2^-1 is (m + 1) / 2 *)
  let d0 = mulmod delta (powmod ((m + 1) / 2) t) 0 in
  let lo = max (m lsl (53 - t)) (1 lsl 53) and hi = min (m lsl (54 - t)) 1_000_000_000_000_000_000 in
  let first = d0 + (m * ((lo - d0 + m - 1) / m)) in
  let d = first + (m * Rng.int rng (max 1 ((hi - first) / m))) in
  let digits = string_of_int d in
  [ digits ^ "e-22"; "0." ^ String.make (22 - String.length digits) '0' ^ digits ]

(* an observe-shaped request: two measurement matrices with missing
   entries, a string with escapes, ints *)
let random_request rng =
  let mat rows cols =
    Linalg.Mat.init rows cols (fun _ _ ->
        if Rng.int rng 12 = 0 then Float.nan else 400.0 +. (80.0 *. Rng.gaussian rng))
  in
  Serve.Wire.print
    (Serve.Wire.Obj
       [ ("op", Serve.Wire.String "observe");
         ("wafer", Serve.Wire.String "w\"7\\\n\x01");
         ("dies", Serve.Wire.mat_to_json (mat (1 + Rng.int rng 3) (1 + Rng.int rng 5)));
         ("truth", Serve.Wire.mat_to_json (mat 2 (1 + Rng.int rng 4)));
         ("seq", Serve.Wire.Int (Rng.int rng 1_000_000 - 500));
         ("tags", Serve.Wire.List [ Serve.Wire.Bool true; Serve.Wire.Null ]) ])

(* truncate, splice, flip a byte, or inflate a run, one to three times *)
let mutate rng lines s =
  let at_most k = if k <= 0 then 0 else Rng.int rng (k + 1) in
  let once s =
    let n = String.length s in
    match Rng.int rng 4 with
    | 0 -> String.sub s 0 (at_most n)
    | 1 ->
      let t = lines.(Rng.int rng (Array.length lines)) in
      let j = at_most (String.length t) in
      String.sub s 0 (at_most n) ^ String.sub t j (String.length t - j)
    | 2 when n > 0 ->
      let b = Bytes.of_string s in
      let pool = "0123456789-+.eE\"[]{},: nul\\" in
      Bytes.set b (Rng.int rng n)
        (if Rng.int rng 4 = 0 then Char.chr (Rng.int rng 256)
         else pool.[Rng.int rng (String.length pool)]);
      Bytes.to_string b
    | _ ->
      let i = at_most n in
      let len = at_most (min 24 (n - i)) in
      let j = at_most n in
      let run = String.sub s i len in
      String.sub s 0 j ^ run ^ run ^ String.sub s j (n - j)
  in
  let rec go k s = if k = 0 then s else go (k - 1) (once s) in
  go (1 + Rng.int rng 3) s

let test_wire_parse_matches_reference () =
  let rng = Rng.create 29 in
  List.iter (check_parse_agrees "fixed")
    [ "0"; "-0"; "-0.0"; "0e400"; "-0e-400"; "007"; "007.50"; "1e"; "1."; "-"; "--1";
      "1.5.5"; "1e+"; ".5"; "-.5"; "1e22"; "1e23"; "9007199254740993"; "4611686018427387903";
      "4611686018427387904"; "-4611686018427387904"; "-4611686018427387905";
      "999999999999999999"; "99999999999999999999"; "[1,-2.5e-3,]"; "[1 2]"; "{\"a\":1e5}" ];
  (* exponents near and past the scanner's 10^6 limit against leading
     fraction zeros that cancel them or their first six digits *)
  let zeros k = "0." ^ String.make k '0' in
  List.iter (check_parse_agrees "cancelling exponent")
    [ zeros 100_000 ^ "1e100005"; zeros 99_999 ^ "1e1000005"; "-" ^ zeros 99_999 ^ "1e1000005";
      zeros 99_999 ^ "1e-1000005"; zeros 99_999 ^ "1e1000000"; zeros 999_990 ^ "1e999995";
      zeros 1_000_000 ^ "1e1000005"; zeros 100_000 ^ "1e0000000100005" ];
  let long_rng = Rng.create 31 in
  for _ = 1 to 300 do
    check_parse_agrees "cancelling exponent" (cancelling_exponent_token long_rng)
  done;
  for _ = 1 to 60_000 do
    let tok = random_number_token rng in
    check_parse_agrees "token" tok;
    check_parse_agrees "token in an array" ("[" ^ tok ^ "," ^ tok ^ "]")
  done;
  for _ = 1 to 20_000 do
    List.iter (check_parse_agrees "tie") (random_tie_tokens rng);
    List.iter (check_parse_agrees "near tie") (near_tie_tokens rng)
  done;
  (* every 3rd double of the print corpus: subnormals, powers of ten
     and their neighbours, 17-digit ties *)
  let count = ref 0 in
  iter_float_corpus (fun x ->
      incr count;
      if !count mod 3 = 0 then check_parse_agrees "printed" (Serve.Wire.print (Serve.Wire.Float x)));
  let lines = Array.init 64 (fun _ -> random_request rng) in
  Array.iter (check_parse_agrees "request") lines;
  for _ = 1 to 20_000 do
    check_parse_agrees "mutated request" (mutate rng lines lines.(Rng.int rng 64))
  done

(* Float rows against the general reader, cell for cell: rows of
   printed and short decimals, some cells replaced by tokens at the edges
   of the scanner (19+ digits, "1.", ".5", "1e", "01.5", "1e999999",
   "-0.0", null, an int, a string, a nested row, nothing), with spaces
   and newlines around cells, rows of rows, and truncated lines. Every
   cell keeps the bits the reference gives, or the line fails with the
   same message at the same offset; a row holding any cell that is not
   a [Float] stays a [List] of the reference's cells. *)
let prop_float_rows_match_reference =
  let open QCheck.Gen in
  let printed = map (fun x -> Serve.Wire.print (Serve.Wire.Float x)) (float_range (-1e4) 1e4) in
  let short = map2 (Printf.sprintf "%d.%d") (int_range (-999) 999) (int_bound 99) in
  let odd =
    oneofl
      [ "1234567890123456789.5"; "12345678901234567890"; "0.12345678901234567891"; "1.";
        ".5"; "1e"; "01.5"; "1e999999"; "-0.0"; "null"; "42"; "-7"; "1e5"; "\"x\""; "[1.5]";
        "" ]
  in
  let ws = oneofl [ ""; ""; ""; " "; "\n\t" ] in
  let row =
    map3
      (fun cells swaps pad ->
        let cells = Array.of_list cells in
        List.iter (fun (i, tok) -> cells.(i mod Array.length cells) <- tok) swaps;
        "[" ^ String.concat "," (Array.to_list (Array.map (fun c -> pad ^ c ^ pad) cells)) ^ "]")
      (list_size (int_range 1 12) (frequency [ (3, printed); (1, short) ]))
      (list_size (int_bound 2) (pair nat odd))
      ws
  in
  let line =
    frequency
      [
        (3, row);
        (1, map (fun rows -> "[" ^ String.concat "," rows ^ "]") (list_size (int_range 1 4) row));
      ]
  in
  let gen =
    map2
      (fun l cut ->
        match cut with Some k -> String.sub l 0 (k mod (String.length l + 1)) | None -> l)
      line
      (frequency [ (5, return None); (1, map Option.some nat) ])
  in
  QCheck.Test.make ~count:3000 ~name:"wire: float rows parse like the general reader, cell for cell"
    (QCheck.make ~print:Fun.id gen)
    (fun line ->
      match parse_disagreement line with None -> true | Some m -> QCheck.Test.fail_report m)

let test_clean_batch_bit_identical () =
  with_server (fun store clean addr ->
      let c = Serve.Client.connect addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      Alcotest.(check bool) "ping" true (Serve.Client.ping c);
      match Serve.Client.predict c clean with
      | Error m -> Alcotest.failf "predict failed: %s" m
      | Ok (served, resp) ->
        let expected =
          Core.Predictor.predict_all (Store.predictor store) ~measured:clean
        in
        Alcotest.(check bool) "bit-identical to Predictor.predict_all" true
          (Linalg.Mat.bits_equal served expected);
        (match Serve.Wire.member "robust" resp with
         | Some (Serve.Wire.Bool false) -> ()
         | _ -> Alcotest.fail "clean batch should take the plain path"))

let test_faulty_batch_matches_robust () =
  with_server (fun store clean addr ->
      let c = Serve.Client.connect addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let faulty = Linalg.Mat.copy clean in
      let _, cols = Linalg.Mat.dims faulty in
      Linalg.Mat.set faulty 1 (cols - 1) Float.nan;
      match Serve.Client.predict c faulty with
      | Error m -> Alcotest.failf "predict failed: %s" m
      | Ok (served, resp) ->
        let expected =
          Core.Robust.predict_all (Store.robust store) ~measured:faulty
        in
        Alcotest.(check bool) "bit-identical to Robust.predict_all" true
          (Linalg.Mat.bits_equal served expected.Core.Robust.predicted);
        (match Serve.Wire.member "robust" resp with
         | Some (Serve.Wire.Bool true) -> ()
         | _ -> Alcotest.fail "NaN entry should route through Robust");
        match Serve.Wire.member "screen" resp with
        | Some (Serve.Wire.Obj _) -> ()
        | _ -> Alcotest.fail "robust response should carry screen counters")

(* a connection writes each response into its one reused writer and
   sends it from there: the bytes on the socket are exactly what
   [Serve.handle] returns, plus the newline, for every kind of response.
   The large predict goes first so every later, shorter response is
   written over its stale bytes. *)
let test_connection_sends_handle_bytes () =
  with_server (fun store clean addr ->
      let fd = raw_connect (sock_path addr) in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      let local = Serve.create store in
      let faulty = Linalg.Mat.copy clean in
      Linalg.Mat.set faulty 2 0 Float.nan;
      let buffers =
        [|
          {
            Tune.paths = [| 0 |];
            levels =
              [|
                { Tune.offset_ps = 0.0; cost = 0.0 };
                { Tune.offset_ps = -10.0; cost = 1.0 };
              |];
          };
        |]
      in
      let predict m =
        Serve.Wire.Obj
          [ ("op", Serve.Wire.String "predict"); ("dies", Serve.Wire.mat_to_json m) ]
      in
      let requests =
        [
          ("predict", predict clean);
          ("error", Serve.Wire.Obj [ ("op", Serve.Wire.String "no-such-op") ]);
          ("robust predict", predict faulty);
          ("yield", Serve.Client.yield_request ~samples:256 ~seed:3 ());
          ("tune", Serve.Client.tune_request ~t_clk:1e9 ~buffers ~measured:clean ());
        ]
      in
      List.iter
        (fun (label, req) ->
          let line = Serve.Wire.print req in
          let sent = raw_roundtrip fd line in
          Alcotest.(check bool) (label ^ ": answered as expected") (label <> "error")
            (response_ok sent);
          Alcotest.(check string) (label ^ ": socket bytes = Serve.handle") (Serve.handle local line)
            sent)
        requests)

let test_malformed_line_isolated () =
  with_server (fun _store clean addr ->
      let path = match addr with Serve.Unix_sock p -> p | Serve.Tcp _ -> assert false in
      let fd = raw_connect path in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      (* a mixed session on ONE connection: garbage, then wrong shapes,
         then a clean batch — only the bad lines get error responses *)
      let r1 = raw_roundtrip fd "this is not json" in
      Alcotest.(check bool) "garbage -> ok:false" true
        (String.length r1 > 0
        && Serve.Wire.(
             match parse r1 with
             | Ok j -> member "ok" j = Some (Bool false)
             | Error _ -> false));
      let r2 = raw_roundtrip fd "{\"op\":\"predict\",\"dies\":[[1,2,3,4,5,6,7,8,9]]}" in
      (match Serve.Wire.parse r2 with
       | Ok j ->
         Alcotest.(check bool) "wrong width -> ok:false" true
           (Serve.Wire.member "ok" j = Some (Serve.Wire.Bool false));
         (match Serve.Wire.member "code" j with
          | Some (Serve.Wire.Int 65) -> ()
          | _ -> Alcotest.fail "bad data should carry sysexits code 65")
       | Error m -> Alcotest.failf "unparseable error response: %s" m);
      let r3 = raw_roundtrip fd "{\"op\":\"ping\"}" in
      (match Serve.Wire.parse r3 with
       | Ok j ->
         Alcotest.(check bool) "connection survives bad lines" true
           (Serve.Wire.member "ok" j = Some (Serve.Wire.Bool true))
       | Error m -> Alcotest.failf "ping after errors failed: %s" m);
      ignore clean)

let test_stats_counters () =
  with_server (fun _store clean addr ->
      let c = Serve.Client.connect addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      ignore (Serve.Client.ping c);
      (match Serve.Client.predict c clean with
       | Ok _ -> ()
       | Error m -> Alcotest.failf "predict failed: %s" m);
      match Serve.Client.stats c with
      | Error m -> Alcotest.failf "stats failed: %s" m
      | Ok j ->
        let dies, _ = Linalg.Mat.dims clean in
        (match Serve.Wire.member "dies_predicted" j with
         | Some (Serve.Wire.Int n) ->
           Alcotest.(check int) "dies_predicted" dies n
         | _ -> Alcotest.fail "stats missing dies_predicted");
        (match Serve.Wire.member "errors" j with
         | Some (Serve.Wire.Int 0) -> ()
         | _ -> Alcotest.fail "unexpected errors counted");
        match Serve.Wire.member "latency_ms" j with
        | Some (Serve.Wire.Obj fields) ->
          Alcotest.(check bool) "latency quantiles present" true
            (List.mem_assoc "p99" fields && List.mem_assoc "mean" fields)
        | _ -> Alcotest.fail "stats missing latency_ms")

(* the live latency includes encoding, most of a large predict's time
   (whole-ps measurements parse as cheap ints; 17-digit predictions come
   back): the recorded maximum is most of the wall time around the call *)
let test_stats_latency_includes_encoding () =
  let store, clean = Lazy.force artifact in
  let server = Serve.create store in
  let rows, cols = Linalg.Mat.dims clean in
  let die i =
    Serve.Wire.List
      (List.init cols (fun j ->
           Serve.Wire.Int (Float.to_int (Linalg.Mat.get clean (i mod rows) j))))
  in
  let request =
    Serve.Wire.print
      (Serve.Wire.Obj
         [ ("op", Serve.Wire.String "predict"); ("dies", Serve.Wire.List (List.init 1000 die)) ])
  in
  let t0 = Unix.gettimeofday () in
  ignore (Serve.handle server request);
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let max_ms =
    match Serve.Wire.parse (Serve.handle server "{\"op\":\"stats\"}") with
    | Ok j ->
      (match Option.bind (Serve.Wire.member "latency_ms" j) (Serve.Wire.member "max") with
       | Some (Serve.Wire.Float ms) -> ms
       | _ -> Alcotest.fail "stats missing latency_ms.max")
    | Error e -> Alcotest.failf "stats: %s" e
  in
  if max_ms < 0.5 *. wall_ms then
    Alcotest.failf "latency max %.2f ms is under half the %.2f ms wall time" max_ms wall_ms

(* ------------------------------------------------------------------ *)
(* Framing edge cases *)

let test_framer_edges () =
  let open Serve.Wire in
  let f = Framer.create ~max_line:32 () in
  (* a line split across many one-byte reads reassembles *)
  let line = "{\"op\":\"ping\"}" in
  String.iter (fun c -> Framer.feed f (Bytes.make 1 c) 0 1) (line ^ "\n");
  (match Framer.pop f with
   | Some (Framer.Line l) -> Alcotest.(check string) "tiny reads" line l
   | _ -> Alcotest.fail "expected a line from one-byte feeds");
  (* CRLF terminators are tolerated *)
  let b = Bytes.of_string "abc\r\n" in
  Framer.feed f b 0 (Bytes.length b);
  (match Framer.pop f with
   | Some (Framer.Line l) -> Alcotest.(check string) "CRLF stripped" "abc" l
   | _ -> Alcotest.fail "expected a line from CRLF input");
  (* empty line is a line, not a protocol wedge *)
  Framer.feed f (Bytes.of_string "\n") 0 1;
  (match Framer.pop f with
   | Some (Framer.Line "") -> ()
   | _ -> Alcotest.fail "expected an empty line");
  (* over-cap flood: capped, buffered prefix discarded, total reported *)
  Alcotest.(check bool) "not overflowing" false (Framer.overflowing f);
  let flood = Bytes.of_string (String.make 100 'x') in
  Framer.feed f flood 0 100;
  Alcotest.(check bool) "overflowing mid-flood" true (Framer.overflowing f);
  Alcotest.(check bool) "partial while discarding" true (Framer.partial f);
  Framer.feed f (Bytes.of_string "\n") 0 1;
  (match Framer.pop f with
   | Some (Framer.Too_long n) -> Alcotest.(check int) "total bytes" 100 n
   | _ -> Alcotest.fail "expected Too_long");
  (* and the next line is unaffected *)
  Framer.feed f (Bytes.of_string "ok\n") 0 3;
  match Framer.pop f with
  | Some (Framer.Line "ok") -> ()
  | _ -> Alcotest.fail "line after the overflow was lost"

(* random JSON, behind a pad that moves it across the first 64 KiB
   boundary of a sinking writer's store, streams exactly the bytes
   [print] gives: nested lists and objects, Floats rows, strings with
   escapes, and runs long enough to span several stores *)
let prop_streamed_equals_print =
  let open QCheck.Gen in
  let open Serve.Wire in
  let str =
    frequency
      [
        ( 6,
          string_size
            ~gen:(oneofl [ 'a'; 'z'; '"'; '\\'; '\n'; '\t'; '\001'; '\127' ])
            (int_bound 40) );
        (1, map2 String.make (int_bound 150_000) (oneofl [ 'x'; '"'; '\\' ]));
      ]
  in
  let num =
    frequency
      [
        (4, float_range (-1e4) 1e4);
        (2, float);
        (1, oneofl [ 0.0; -0.0; Float.nan; Float.infinity; 1e300; 5e-324; 1e-5 ]);
      ]
  in
  let leaf =
    frequency
      [
        (1, return Null);
        (1, map (fun b -> Bool b) bool);
        (2, map (fun i -> Int i) int);
        (2, map (fun f -> Float f) num);
        (2, map (fun s -> String s) str);
        (2, map (fun a -> Floats a) (array_size (int_bound 3000) num));
      ]
  in
  let json =
    fix
      (fun self depth ->
        if depth = 0 then leaf
        else
          frequency
            [
              (2, leaf);
              (2, map (fun l -> List l) (list_size (int_bound 5) (self (depth - 1))));
              (2, map (fun l -> Obj l) (list_size (int_bound 5) (pair str (self (depth - 1)))));
            ])
      3
  in
  let gen = map2 (fun pad j -> List [ String (String.make pad 'p'); j ]) (int_bound 65536) json in
  QCheck.Test.make ~count:150 ~name:"wire: a sinking writer streams the bytes print gives"
    (QCheck.make ~print:(fun j -> Printf.sprintf "%d bytes" (String.length (print j))) gen)
    (fun j -> String.equal (streamed j) (print j))

(* Framing by runs against the one-byte-at-a-time rule: random lines
   (CRLF, bare '\r', empty, over the cap, an unterminated tail) fed in
   random chunks must give the same items and the same partial and
   overflowing state. Each chunk sits inside a buffer of stale bytes
   ending in a newline, so a scan past the fed range would show. *)
let prop_framer_chunking =
  let open Serve.Wire in
  let line = QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; '\r' ]) (int_bound 20)) in
  let input =
    QCheck.Gen.(
      map2
        (fun lines tail ->
          String.concat "" (List.map (fun (l, crlf) -> l ^ if crlf then "\r\n" else "\n") lines)
          ^ tail)
        (list_size (int_bound 8) (pair line bool))
        line)
  in
  let gen = QCheck.Gen.(triple (int_range 1 12) input (list_size (int_range 1 6) (int_range 1 9))) in
  let print (max_line, s, cuts) =
    Printf.sprintf "max_line %d, input %S, chunks %s" max_line s
      (String.concat "," (List.map string_of_int cuts))
  in
  QCheck.Test.make ~count:500 ~name:"framer: any chunking frames like one byte at a time"
    (QCheck.make ~print gen)
    (fun (max_line, s, cuts) ->
      let state f =
        let rec drain acc = match Framer.pop f with Some x -> drain (x :: acc) | None -> acc in
        (List.rev (drain []), Framer.partial f, Framer.overflowing f)
      in
      let bytewise = Framer.create ~max_line () in
      String.iter (fun c -> Framer.feed bytewise (Bytes.make 1 c) 0 1) s;
      let chunked = Framer.create ~max_line () in
      let buf = Bytes.create (String.length s + 4) in
      let n = String.length s and cuts = Array.of_list cuts in
      let rec go pos i =
        if pos < n then begin
          let k = min cuts.(i mod Array.length cuts) (n - pos) in
          Bytes.fill buf 0 (Bytes.length buf) 'x';
          Bytes.set buf (Bytes.length buf - 1) '\n';
          Bytes.blit_string s pos buf 2 k;
          Framer.feed chunked buf 2 k;
          go (pos + k) (i + 1)
        end
      in
      go 0 0;
      state bytewise = state chunked)

(* The documented framing rule, one byte at a time: a line fills up to
   [max_line] bytes, the byte that finds it full drops them and starts
   the discard count, every later byte up to the newline adds one, and
   the newline reports [Too_long (max_line + discarded)]; a line that
   fits comes out without its trailing '\r'. Returns the items, then
   [partial] and [overflowing] at the end of the input. *)
let framer_model max_line s =
  let open Serve.Wire.Framer in
  let items = ref [] and cur = Buffer.create 16 and dropped = ref 0 in
  String.iter
    (fun c ->
      if c = '\n' then begin
        (if !dropped > 0 then items := Too_long (max_line + !dropped) :: !items
         else
           let l = Buffer.contents cur in
           let n = String.length l in
           let l = if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l in
           items := Line l :: !items);
        Buffer.clear cur;
        dropped := 0
      end
      else if !dropped > 0 then incr dropped
      else if Buffer.length cur < max_line then Buffer.add_char cur c
      else begin
        Buffer.clear cur;
        dropped := 1
      end)
    s;
  (List.rev !items, Buffer.length cur > 0 || !dropped > 0, !dropped > 0)

(* The framer against [framer_model]: lines of 0-40 bytes with CR, LF
   and CRLF, caps from 1 to 48 bytes, fed in chunks of 1-40 bytes whose
   edges fall next to a '\r' or '\n' half the time. Each chunk sits in a
   buffer of stale newlines, so a scan past the fed range would show. *)
let prop_framer_model =
  let open QCheck.Gen in
  let line = string_size ~gen:(frequency [ (8, oneofl [ 'a'; 'b' ]); (1, return '\r') ]) (int_bound 40) in
  let input =
    map2
      (fun lines tail ->
        String.concat ""
          (List.map (fun (l, t) -> l ^ match t with 0 -> "\n" | 1 -> "\r\n" | _ -> "\r") lines)
        ^ tail)
      (list_size (int_bound 10) (pair line (int_bound 2)))
      line
  in
  let print (max_line, s, seed) = Printf.sprintf "max_line %d, input %S, seed %d" max_line s seed in
  QCheck.Test.make ~count:1000 ~name:"framer: any chunking frames like the byte-at-a-time model"
    (QCheck.make ~print (triple (int_range 1 48) input nat))
    (fun (max_line, s, seed) ->
      let open Serve.Wire in
      let rng = Random.State.make [| seed |] in
      let n = String.length s in
      let f = Framer.create ~max_line () in
      let buf = Bytes.make (n + 16) '\n' in
      (* the next chunk edge after [pos]: beside a terminator byte, or
         1-40 bytes on *)
      let edge pos =
        let rec near k =
          if k >= n || k > pos + 40 then None
          else if (s.[k] = '\r' || s.[k] = '\n') && Random.State.bool rng then
            Some (if Random.State.bool rng || k = pos then k + 1 else k)
          else near (k + 1)
        in
        match near pos with Some k -> k | None -> min n (pos + 1 + Random.State.int rng 40)
      in
      let rec go pos =
        if pos < n then begin
          let stop = edge pos in
          Bytes.blit_string s pos buf 8 (stop - pos);
          Framer.feed f buf 8 (stop - pos);
          Bytes.fill buf 0 (Bytes.length buf) '\n';
          go stop
        end
      in
      go 0;
      let rec drain acc = match Framer.pop f with Some x -> drain (x :: acc) | None -> List.rev acc in
      let items = drain [] in
      (items, Framer.partial f, Framer.overflowing f) = framer_model max_line s)

(* a framer that lives on gives back what a long line made it hold:
   after a newline-less flood past the cap, and after a line longer
   than 4 MiB, the words reachable from it are back near where they
   started. (The process's heap words would also count whatever other
   suites of this runner still hold.) *)
let test_framer_gives_back_storage () =
  let open Serve.Wire in
  let max_line = 8 * 1024 * 1024 in
  let f = Framer.create ~max_line () in
  let chunk = Bytes.make 65536 'x' in
  let held () = Obj.reachable_words (Obj.repr f) in
  let base = held () in
  let feed_bytes k =
    for _ = 1 to k / 65536 do
      Framer.feed f chunk 0 65536
    done
  in
  let near_base what =
    let grown = held () - base in
    if grown > 1024 then Alcotest.failf "%s: the framer holds %d more words" what grown
  in
  feed_bytes (4 * 1024 * 1024);
  Alcotest.(check bool) "a 4 MiB prefix is held" true (held () - base >= 512 * 1024);
  feed_bytes (max_line - (4 * 1024 * 1024) + 65536);
  Alcotest.(check bool) "flood overflows" true (Framer.overflowing f);
  near_base "mid-flood, past the cap";
  Framer.feed f (Bytes.of_string "\n") 0 1;
  (match Framer.pop f with
   | Some (Framer.Too_long n) -> Alcotest.(check int) "flood size" (max_line + 65536) n
   | _ -> Alcotest.fail "expected Too_long");
  feed_bytes (6 * 1024 * 1024);
  Framer.feed f (Bytes.of_string "\n") 0 1;
  (match Framer.pop f with
   | Some (Framer.Line l) -> Alcotest.(check int) "long line" (6 * 1024 * 1024) (String.length l)
   | _ -> Alcotest.fail "expected the long line");
  near_base "after a 6 MiB line";
  Alcotest.(check bool) "framer idle" false (Framer.partial f)

let test_framing_over_socket () =
  let config = { Serve.default_config with Serve.max_line = 256 } in
  with_server ~config (fun _store _clean addr ->
      let fd = raw_connect (sock_path addr) in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      (* a newline-less flood far past the cap: typed error, capped
         memory, and the connection survives *)
      raw_send fd (String.make 4096 'z');
      raw_send fd "\n";
      let r = raw_read_line fd in
      check_infra_code "oversized line" r "line_too_long";
      (match Serve.Wire.parse r with
       | Ok j ->
         Alcotest.(check (option string)) "the whole line is counted"
           (Some "request line of 4096 bytes exceeds the 256-byte cap")
           (match Serve.Wire.member "error" j with Some (Serve.Wire.String m) -> Some m | _ -> None)
       | Error e -> Alcotest.failf "oversized line response: %s" e);
      (* trailing garbage after valid JSON poisons only that line *)
      let r = raw_roundtrip fd "{\"op\":\"ping\"} trailing" in
      check_infra_code "trailing garbage" r "bad_frame";
      (* an empty line is a frame error, not a hang or a disconnect *)
      let r = raw_roundtrip fd "" in
      check_infra_code "empty line" r "bad_frame";
      (* CRLF-terminated request works *)
      raw_send fd "{\"op\":\"ping\"}\r\n";
      Alcotest.(check bool) "CRLF request" true (response_ok (raw_read_line fd));
      (* a request dribbled out one byte at a time still completes *)
      String.iter (fun c -> raw_send fd (String.make 1 c)) "{\"op\":\"ping\"}\n";
      Alcotest.(check bool) "tiny writes" true (response_ok (raw_read_line fd)))

(* ------------------------------------------------------------------ *)
(* Overload shedding, deadlines, idle reaping *)

let test_shed_overloaded () =
  let config = { Serve.default_config with Serve.workers = 1; queue = 1 } in
  with_server ~config (fun _store _clean addr ->
      let path = sock_path addr in
      (* occupy the single worker ... *)
      let a = raw_connect path in
      Thread.delay 0.3;
      (* ... fill the one queue slot ... *)
      let b = raw_connect path in
      Thread.delay 0.3;
      (* ... and the next connection must be shed with a typed code *)
      let c = raw_connect path in
      Fun.protect
        ~finally:(fun () -> List.iter Unix.close [ a; b; c ])
      @@ fun () ->
      let r = raw_read_line c in
      check_infra_code "shed connection" r "overloaded";
      (* the worker's own connection still serves, and counted the shed *)
      let r = raw_roundtrip a "{\"op\":\"ping\"}" in
      Alcotest.(check bool) "occupied conn still serves" true (response_ok r);
      let r = raw_roundtrip a "{\"op\":\"stats\"}" in
      match Serve.Wire.parse r with
      | Ok j ->
        (match Serve.Wire.member "shed" j with
         | Some (Serve.Wire.Int n) when n >= 1 -> ()
         | _ -> Alcotest.failf "shed counter missing or zero: %s" r)
      | Error m -> Alcotest.failf "stats unparseable: %s" m)

let test_deadline_exceeded () =
  let config = { Serve.default_config with Serve.deadline = 0.4 } in
  with_server ~config (fun _store _clean addr ->
      let fd = raw_connect (sock_path addr) in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      (* start a request line and never finish it: the wall clock, not
         the read loop, decides when it dies *)
      raw_send fd "{\"op\":";
      let t0 = Unix.gettimeofday () in
      let r = raw_read_line fd in
      let dt = Unix.gettimeofday () -. t0 in
      check_infra_code "deadline expiry" r "deadline_exceeded";
      Alcotest.(check bool) "expired near the configured deadline" true
        (dt >= 0.2 && dt < 5.0);
      (* mid-frame stream: the server must close after answering *)
      Alcotest.(check string) "closed after deadline" "" (raw_read_line fd);
      (* the per-cause counter is visible to a fresh client *)
      let c = Serve.Client.connect addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      Alcotest.(check bool) "timeouts counter" true (stat_int c "timeouts" >= 1))

(* A response leaves in pieces while it is encoded, and its pieces
   share one deadline, armed by the first. A reader that takes one
   chunk of a multi-megabyte response and stalls, and one that drips a
   chunk every fifth of the deadline (under a budget per piece it would
   never time out), are each timed out once, within one deadline plus
   slack. Each stream stops mid-line and its connection closes; the
   request counts once, with its latency running to the failed write,
   and the server goes on answering a second connection. *)
let test_stalled_reader () =
  let deadline = 0.5 in
  let config = { Serve.default_config with Serve.deadline; workers = 3; max_batch = 8000 } in
  with_server ~config (fun store clean addr ->
      let rows, _ = Linalg.Mat.dims clean in
      let line =
        Serve.Wire.print
          (Serve.Wire.Obj
             [
               ("op", Serve.Wire.String "predict");
               ( "dies",
                 Serve.Wire.mat_to_json
                   (Linalg.Mat.select_rows clean (Array.init 8000 (fun i -> i mod rows))) );
             ])
      in
      let full = String.length (Serve.handle (Serve.create ~config store) line) + 1 in
      if full < 2 lsl 20 then Alcotest.failf "a response of %d bytes is too small" full;
      let c = Serve.Client.connect addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let polls = ref 0 in
      let timeouts () =
        incr polls;
        stat_int c "timeouts"
      in
      let chunk = Bytes.create 65536 in
      (* the bytes one stalled or dripping reader takes before EOF, and
         the seconds from its request to the server's timeout *)
      let reader ~drip =
        let fd = raw_connect (sock_path addr) in
        Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
        let before = timeouts () in
        let t0 = Unix.gettimeofday () in
        raw_send fd (line ^ "\n");
        let got = ref (Unix.read fd chunk 0 65536) in
        let rec wait () =
          if timeouts () > before then Unix.gettimeofday () -. t0
          else if Unix.gettimeofday () -. t0 > 10.0 *. deadline then
            Alcotest.failf "no timeout %.0f s after the request" (10.0 *. deadline)
          else begin
            Thread.delay (deadline /. 5.0);
            if drip then got := !got + Unix.read fd chunk 0 65536;
            wait ()
          end
        in
        let dt = wait () in
        let rec drain () =
          match Unix.read fd chunk 0 65536 with
          | 0 -> ()
          | n ->
            got := !got + n;
            drain ()
        in
        drain ();
        (!got, dt)
      in
      List.iter
        (fun drip ->
          let label = if drip then "dripping reader" else "stalled reader" in
          let got, dt = reader ~drip in
          Alcotest.(check bool) (label ^ ": the stream stops mid-line") true (got < full);
          if dt > deadline +. 1.5 then
            Alcotest.failf "%s: timed out %.2f s after its request" label dt)
        [ false; true ];
      let stats =
        match Serve.Client.stats c with Ok j -> j | Error m -> Alcotest.failf "stats: %s" m
      in
      let int key =
        match Serve.Wire.member key stats with Some (Serve.Wire.Int n) -> n | _ -> -1
      in
      Alcotest.(check int) "one timeout per reader" 2 (int "timeouts");
      Alcotest.(check int) "each request counted once" (2 + !polls) (int "requests");
      match
        Option.bind (Serve.Wire.member "latency_ms" stats) (Serve.Wire.member "max")
      with
      | Some (Serve.Wire.Float ms) when ms >= deadline *. 1000.0 -> ()
      | _ -> Alcotest.fail "the latency of a timed-out response ends before its deadline")

let test_idle_reaped () =
  let config = { Serve.default_config with Serve.idle_timeout = 0.3 } in
  with_server ~config (fun _store _clean addr ->
      let fd = raw_connect (sock_path addr) in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      let t0 = Unix.gettimeofday () in
      (* no request in flight: a silent connection is closed without a
         response (idle reap, not deadline expiry) *)
      Alcotest.(check string) "silent close" "" (raw_read_line fd);
      Alcotest.(check bool) "after the idle window" true
        (Unix.gettimeofday () -. t0 >= 0.2);
      let c = Serve.Client.connect addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      Alcotest.(check bool) "idle_closed counter" true
        (stat_int c "idle_closed" >= 1))

(* ------------------------------------------------------------------ *)
(* SIGHUP hot reload *)

let test_sighup_reload () =
  let store, _ = Lazy.force artifact in
  let apath = Filename.temp_file "pathsel-reload" ".psa" in
  (match Store.save apath store with
   | Ok () -> ()
   | Error e -> Alcotest.failf "save failed: %s" (Core.Errors.to_string e));
  Fun.protect ~finally:(fun () -> try Sys.remove apath with Sys_error _ -> ())
  @@ fun () ->
  with_server ~reload_from:apath (fun store clean addr ->
      let c = Serve.Client.connect addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let expected =
        Core.Predictor.predict_all (Store.predictor store) ~measured:clean
      in
      let predict_ok label =
        match Serve.Client.predict c clean with
        | Ok (m, _) ->
          Alcotest.(check bool) (label ^ ": bits stable") true
            (Linalg.Mat.bits_equal m expected)
        | Error m -> Alcotest.failf "%s: predict failed: %s" label m
      in
      predict_ok "before reload";
      (* swap in a same-selection artifact under a new fingerprint *)
      (match
         Store.save apath { store with Store.fingerprint = "test:serve v2" }
       with
       | Ok () -> ()
       | Error e -> Alcotest.failf "re-save failed: %s" (Core.Errors.to_string e));
      Unix.kill (Unix.getpid ()) Sys.sighup;
      (* the accept loop applies the reload between accepts; poll *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      while stat_int c "reloads" < 1 && Unix.gettimeofday () < deadline do
        Thread.delay 0.05
      done;
      Alcotest.(check bool) "reload counted" true (stat_int c "reloads" >= 1);
      (match Serve.Client.stats c with
       | Ok j ->
         (match Serve.Wire.member "artifact" j with
          | Some a ->
            (match Serve.Wire.member "fingerprint" a with
             | Some (Serve.Wire.String "test:serve v2") -> ()
             | _ -> Alcotest.failf "fingerprint not swapped: %s" (Serve.Wire.print j))
          | None -> Alcotest.fail "stats missing artifact")
       | Error m -> Alcotest.failf "stats failed: %s" m);
      predict_ok "after reload";
      (* a corrupt artifact is rejected: serving state untouched *)
      Out_channel.with_open_bin apath (fun oc ->
          Out_channel.output_string oc "definitely not an artifact");
      Unix.kill (Unix.getpid ()) Sys.sighup;
      let deadline = Unix.gettimeofday () +. 10.0 in
      while stat_int c "reload_failures" < 1 && Unix.gettimeofday () < deadline do
        Thread.delay 0.05
      done;
      Alcotest.(check bool) "bad artifact rejected" true
        (stat_int c "reload_failures" >= 1);
      predict_ok "after failed reload")

(* ------------------------------------------------------------------ *)
(* Client retry policy *)

let test_retry_semantics () =
  with_server (fun _store clean addr ->
      let c = Serve.Client.connect addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let _, cols = Linalg.Mat.dims clean in
      let bad = Linalg.Mat.create 1 (cols + 1) in
      let r0 = stat_int c "requests" in
      (* a semantic error (integer code) must NOT be retried: exactly
         one request hits the server no matter how many attempts the
         policy allows *)
      (match Serve.Client.predict_with_retry addr bad with
       | Ok _ -> Alcotest.fail "wrong-width batch accepted"
       | Error _ -> ());
      let r1 = stat_int c "requests" in
      (* r0's stats read was already counted; since then: the one bad
         predict and the r1 stats read itself *)
      Alcotest.(check int) "semantic error sent once" (r0 + 2) r1;
      (* a good batch through the retry path predicts normally *)
      (match Serve.Client.predict_with_retry addr clean with
       | Ok _ -> ()
       | Error m -> Alcotest.failf "retry predict failed: %s" m);
      (* transport errors ARE retried: a dead address costs the backoff
         schedule and comes back as Error, not an exception *)
      let retry =
        { Serve.Client.attempts = 3; base_delay = 0.02; max_delay = 0.1;
          connect_timeout = 0.5; deadline = 0.5 }
      in
      let dead = Serve.Unix_sock (sock_path addr ^ ".nowhere") in
      let t0 = Unix.gettimeofday () in
      (match
         Serve.Client.request_with_retry ~retry dead
           (Serve.Wire.Obj [ ("op", Serve.Wire.String "ping") ])
       with
       | Ok _ -> Alcotest.fail "request to a dead socket succeeded"
       | Error _ -> ());
      Alcotest.(check bool) "backoff slept between attempts" true
        (Unix.gettimeofday () -. t0 >= 0.03))

(* ------------------------------------------------------------------ *)
(* Generation counters, the observe op, and the self-healing loop
   (in-process: [Serve.handle]/[Serve.monitor_step] driven directly) *)

let gen_of r =
  match Serve.Wire.parse r with
  | Ok j ->
    (match Serve.Wire.member "gen" j with
     | Some (Serve.Wire.Int g) -> g
     | _ -> Alcotest.failf "response carries no generation: %s" r)
  | Error m -> Alcotest.failf "unparseable response: %s" m

let observe_req measured truth =
  Serve.Wire.print
    (Serve.Wire.Obj
       [
         ("op", Serve.Wire.String "observe");
         ("dies", Serve.Wire.mat_to_json measured);
         ("truth", Serve.Wire.mat_to_json truth);
       ])

let serve_mon_cfg =
  {
    Serve.Monitor.default_config with
    Serve.Monitor.calibrate = 8;
    min_dies = 8;
    buffer = 16;
    cooldown = 0.5;
    drift =
      { Stats.Drift.default_config with Stats.Drift.slack = 0.0; warn = 1.0;
        drift = 2.0 };
  }

(* residual-free truth: predictions of the serving artifact itself, so
   calibration sees a zero-sigma healthy reference *)
let exact_truth store clean =
  Core.Predictor.predict_all (Store.predictor store) ~measured:clean

let with_artifact_file f =
  let store, clean = Lazy.force artifact in
  let apath = Filename.temp_file "pathsel-mon" ".psa" in
  (match Store.save apath store with
   | Ok () -> ()
   | Error e -> Alcotest.failf "save failed: %s" (Core.Errors.to_string e));
  Fun.protect ~finally:(fun () -> try Sys.remove apath with Sys_error _ -> ())
  @@ fun () -> f store clean apath

let test_generation_and_reload () =
  with_artifact_file @@ fun store _clean apath ->
  let t = Serve.create ~reload_from:apath store in
  Alcotest.(check int) "fresh server is generation 1" 1
    (gen_of (Serve.handle t {|{"op":"ping"}|}));
  (match Serve.do_reload t with
   | Ok () -> ()
   | Error m -> Alcotest.failf "reload failed: %s" m);
  Alcotest.(check int) "reload bumps the generation" 2
    (gen_of (Serve.handle t {|{"op":"ping"}|}));
  (match Serve.Wire.parse (Serve.handle t {|{"op":"stats"}|}) with
   | Ok j ->
     (match Serve.Wire.member "artifact" j with
      | Some a ->
        (match Serve.Wire.member "generation" a with
         | Some (Serve.Wire.Int 2) -> ()
         | _ -> Alcotest.failf "artifact.generation: %s" (Serve.Wire.print j))
      | None -> Alcotest.fail "stats missing artifact")
   | Error m -> Alcotest.failf "stats unparseable: %s" m);
  (* without a reload path the swap is refused, not crashed *)
  let t2 = Serve.create store in
  match Serve.do_reload t2 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "reload without a path must be refused"

let test_observe_requires_monitor () =
  let store, clean = Lazy.force artifact in
  let t = Serve.create store in
  Alcotest.(check bool) "observe refused when monitoring is off" false
    (response_ok (Serve.handle t (observe_req clean (exact_truth store clean))))

let test_auto_reselect_end_to_end () =
  with_artifact_file @@ fun store clean apath ->
  let config =
    { Serve.default_config with Serve.monitor = Some serve_mon_cfg }
  in
  let t = Serve.create ~config ~reload_from:apath store in
  let truth = exact_truth store clean in
  let n_dies, n_rem = Linalg.Mat.dims truth in
  (* healthy stream: calibration plus a flat zero-residual baseline *)
  let r1 = Serve.handle t (observe_req clean truth) in
  Alcotest.(check bool) "observe accepted" true (response_ok r1);
  Alcotest.(check int) "observe rides generation 1" 1 (gen_of r1);
  (match Serve.Wire.parse r1 with
   | Ok j ->
     (match Serve.Wire.member "queued" j with
      | Some (Serve.Wire.Int q) -> Alcotest.(check int) "all dies clean" n_dies q
      | _ -> Alcotest.failf "no queued count: %s" r1)
   | Error m -> Alcotest.failf "unparseable: %s" m);
  Serve.monitor_step t ~now:0.0;
  (match Serve.monitor_report t with
   | Some rep ->
     Alcotest.(check bool) "calibrated" false rep.Serve.Monitor.calibrating;
     Alcotest.(check int) "stream observed" n_dies rep.Serve.Monitor.observed;
     Alcotest.(check string) "healthy baseline" "healthy"
       (Stats.Drift.state_to_string rep.Serve.Monitor.state)
   | None -> Alcotest.fail "monitor armed but no report");
  (* inject a process shift: every remaining-path delay jumps — the
     residual stream leaves the zero-sigma reference immediately *)
  let shifted =
    Linalg.Mat.init n_dies n_rem (fun i j -> Linalg.Mat.get truth i j +. 10.0)
  in
  Alcotest.(check bool) "shifted batch accepted" true
    (response_ok (Serve.handle t (observe_req clean shifted)));
  Serve.monitor_step t ~now:1.0;
  (match Serve.monitor_report t with
   | Some rep ->
     Alcotest.(check int) "drift bound, reselect ran" 1
       rep.Serve.Monitor.reselects;
     Alcotest.(check int) "no failures" 0 rep.Serve.Monitor.reselect_failures;
     Alcotest.(check bool) "reselect wall time surfaced" true
       (Float.is_finite rep.Serve.Monitor.last_reselect_ms)
   | None -> Alcotest.fail "monitor lost after reselect");
  (* the re-selected artifact was saved, CRC-verified and swapped in *)
  Alcotest.(check int) "swap bumped the generation" 2
    (gen_of (Serve.handle t {|{"op":"ping"}|}));
  match Serve.Wire.parse (Serve.handle t {|{"op":"stats"}|}) with
  | Ok j ->
    (match Serve.Wire.member "artifact" j with
     | Some a ->
       (match Serve.Wire.member "fingerprint" a with
        | Some (Serve.Wire.String fp) ->
          let has_marker =
            let marker = "[reselect" in
            let lm = String.length marker and n = String.length fp in
            let rec go i =
              i + lm <= n && (String.sub fp i lm = marker || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "provenance in the fingerprint" true has_marker
        | _ -> Alcotest.fail "no fingerprint")
     | None -> Alcotest.fail "stats missing artifact")
  | Error m -> Alcotest.failf "stats unparseable: %s" m

let test_reselect_failure_degrades_gracefully () =
  (* monitor armed but no reload path: re-selection cannot swap, so it
     must fail into backoff while the old artifact keeps serving *)
  let store, clean = Lazy.force artifact in
  let config =
    { Serve.default_config with Serve.monitor = Some serve_mon_cfg }
  in
  let t = Serve.create ~config store in
  let truth = exact_truth store clean in
  let n_dies, n_rem = Linalg.Mat.dims truth in
  Alcotest.(check bool) "healthy stream" true
    (response_ok (Serve.handle t (observe_req clean truth)));
  Serve.monitor_step t ~now:0.0;
  let shifted =
    Linalg.Mat.init n_dies n_rem (fun i j -> Linalg.Mat.get truth i j +. 10.0)
  in
  Alcotest.(check bool) "shifted stream" true
    (response_ok (Serve.handle t (observe_req clean shifted)));
  Serve.monitor_step t ~now:1.0;
  (match Serve.monitor_report t with
   | Some rep ->
     Alcotest.(check int) "failure counted" 1
       rep.Serve.Monitor.reselect_failures;
     Alcotest.(check int) "nothing swapped" 0 rep.Serve.Monitor.reselects;
     Alcotest.(check bool) "backoff armed" true
       (rep.Serve.Monitor.backoff_s > 0.0);
     Alcotest.(check bool) "cause surfaced" true
       (String.length rep.Serve.Monitor.last_error > 0)
   | None -> Alcotest.fail "monitor armed but no report");
  (* the serving path never noticed: same generation, predictions live *)
  Alcotest.(check int) "old artifact keeps serving" 1
    (gen_of (Serve.handle t {|{"op":"ping"}|}));
  let predict_req =
    Serve.Wire.print
      (Serve.Wire.Obj
         [
           ("op", Serve.Wire.String "predict");
           ("dies", Serve.Wire.mat_to_json clean);
         ])
  in
  Alcotest.(check bool) "predict unaffected" true
    (response_ok (Serve.handle t predict_req))

let test_client_observe_and_generation () =
  let config =
    { Serve.default_config with Serve.monitor = Some serve_mon_cfg }
  in
  with_server ~config (fun store clean addr ->
      let c = Serve.Client.connect addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      Alcotest.(check (option int)) "no generation before a response" None
        (Serve.Client.generation c);
      Alcotest.(check bool) "ping" true (Serve.Client.ping c);
      Alcotest.(check (option int)) "generation tracked" (Some 1)
        (Serve.Client.generation c);
      let truth = exact_truth store clean in
      match Serve.Client.observe c ~measured:clean ~truth with
      | Ok j ->
        (match Serve.Wire.member "queued" j with
         | Some (Serve.Wire.Int q) when q >= 1 -> ()
         | _ -> Alcotest.failf "queued missing: %s" (Serve.Wire.print j))
      | Error m -> Alcotest.failf "client observe failed: %s" m)

(* durability: a clean restart over the same WAL directory must come
   back with the generation bumped and the monitor state — counters,
   drift accumulators — bit-exactly where the first run left it *)
let test_restart_recovers_state () =
  let store, clean = Lazy.force artifact in
  let wal_dir =
    let d = Filename.temp_file "pathsel-serve-wal" "" in
    Sys.remove d;
    d
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists wal_dir then begin
        Array.iter
          (fun f -> try Sys.remove (Filename.concat wal_dir f) with _ -> ())
          (Sys.readdir wal_dir);
        try Unix.rmdir wal_dir with Unix.Unix_error _ -> ()
      end)
  @@ fun () ->
  let config =
    {
      Serve.default_config with
      Serve.monitor =
        (* drift thresholds out of reach: the stream below has real
           residuals (live CUSUM movement to compare across the
           restart) but must never trigger a re-selection *)
        Some
          {
            serve_mon_cfg with
            Serve.Monitor.cooldown = 0.05;
            drift =
              { Stats.Drift.default_config with Stats.Drift.slack = 0.0;
                warn = 1e6; drift = 1e9; var_ratio = 1e9 };
          };
      durability =
        Some
          { Serve.wal_dir; checkpoint_every = 4; wal_segment_bytes = 1 lsl 22;
            wal_retain = 1 };
    }
  in
  let obj_int j outer field =
    match Serve.Wire.member outer j with
    | Some o ->
      (match Serve.Wire.member field o with
       | Some (Serve.Wire.Int i) -> i
       | _ -> Alcotest.failf "stats: no %s.%s (int)" outer field)
    | None -> Alcotest.failf "stats: no %s object" outer
  in
  let obj_float j outer field =
    match Serve.Wire.member outer j with
    | Some o ->
      (match Serve.Wire.member field o with
       | Some (Serve.Wire.Float f) -> f
       | Some (Serve.Wire.Int i) -> float_of_int i
       | _ -> Alcotest.failf "stats: no %s.%s (float)" outer field)
    | None -> Alcotest.failf "stats: no %s object" outer
  in
  let obj_string j outer field =
    match Serve.Wire.member outer j with
    | Some o ->
      (match Serve.Wire.member field o with
       | Some (Serve.Wire.String s) -> s
       | _ -> Alcotest.failf "stats: no %s.%s (string)" outer field)
    | None -> Alcotest.failf "stats: no %s object" outer
  in
  let stats_exn c =
    match Serve.Client.stats c with
    | Ok j -> j
    | Error m -> Alcotest.failf "stats failed: %s" m
  in
  let gen_of j =
    match Serve.Wire.member "gen" j with
    | Some (Serve.Wire.Int g) -> g
    | _ -> Alcotest.fail "stats: no gen"
  in
  (* truth with a constant shift: nonzero residuals, so the detector
     accumulators the restart must preserve are not trivially zero *)
  let truth = exact_truth store clean in
  let n_dies, n_rem = Linalg.Mat.dims truth in
  let shifted =
    Linalg.Mat.init n_dies n_rem (fun i j -> Linalg.Mat.get truth i j +. 0.25)
  in
  (* first run: feed the monitor, wait until every journaled record is
     applied, and note the exact state the restart must reproduce *)
  let first_run =
    with_server ~config (fun _store _clean addr ->
        let c = Serve.Client.connect addr in
        Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
        for _ = 1 to 4 do
          match Serve.Client.observe c ~measured:clean ~truth:shifted with
          | Ok j ->
            Alcotest.(check bool) "ack only after the journal write" true
              (Serve.Wire.member "journaled" j = Some (Serve.Wire.Bool true));
            Alcotest.(check int) "per-die status for the whole batch" n_dies
              (List.length (Serve.Client.die_statuses j))
          | Error m -> Alcotest.failf "observe failed: %s" m
        done;
        (* the monitor drains asynchronously: settle before reading *)
        let deadline = Unix.gettimeofday () +. 5.0 in
        let rec settle () =
          let j = stats_exn c in
          let applied =
            obj_int j "monitor" "observed" + obj_int j "monitor" "skipped"
          in
          if applied >= obj_int j "durability" "journaled" then j
          else if Unix.gettimeofday () > deadline then
            Alcotest.fail "monitor never drained the journal"
          else begin
            Thread.delay 0.02;
            settle ()
          end
        in
        settle ())
  in
  let gen1 = gen_of first_run in
  let journaled1 = obj_int first_run "durability" "journaled" in
  Alcotest.(check int) "every die journaled" (4 * n_dies) journaled1;
  (* second run, same WAL dir: recovery is checkpoint + WAL suffix *)
  with_server ~config (fun _store _clean addr ->
      let c = Serve.Client.connect addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let j = stats_exn c in
      Alcotest.(check int) "generation survives and increments" (gen1 + 1)
        (gen_of j);
      Alcotest.(check int) "journal high-water mark survives" journaled1
        (obj_int j "durability" "journaled");
      List.iter
        (fun field ->
          Alcotest.(check int)
            ("monitor." ^ field ^ " recovered")
            (obj_int first_run "monitor" field)
            (obj_int j "monitor" field))
        [ "observed"; "skipped"; "dropped"; "reselects" ];
      Alcotest.(check string) "drift state recovered"
        (obj_string first_run "monitor" "state")
        (obj_string j "monitor" "state");
      (* the wire prints %.17g, so bit-level equality is observable
         end to end *)
      List.iter
        (fun field ->
          Alcotest.(check int64)
            ("monitor." ^ field ^ " bit-exact")
            (Int64.bits_of_float (obj_float first_run "monitor" field))
            (Int64.bits_of_float (obj_float j "monitor" field)))
        [ "cusum"; "var_ratio" ];
      (* and the revived journal keeps accepting acked work *)
      match Serve.Client.observe c ~measured:clean ~truth:shifted with
      | Ok ack ->
        Alcotest.(check bool) "post-restart observe journaled" true
          (Serve.Wire.member "journaled" ack = Some (Serve.Wire.Bool true));
        Alcotest.(check bool) "dies accepted after recovery" true
          (List.for_all (fun s -> s = "used") (Serve.Client.die_statuses ack))
      | Error m -> Alcotest.failf "post-restart observe failed: %s" m)

(* Boot on a WAL of every clean die plus the given checkpoint file,
   which [Durable.load_checkpoint] must reject with [expected]: the
   monitor cold-starts and replays the whole WAL. Returns the booted
   server's generation and the one the checkpoint file still yields. *)
let boot_on_bad_checkpoint ~label ckpt_bytes expected =
  let store, clean = Lazy.force artifact in
  let ok = Core.Errors.get_ok in
  let p = Store.predictor store in
  let rep = Core.Predictor.rep_indices p and rem = Core.Predictor.rem_indices p in
  let truth = exact_truth store clean in
  let n_dies, _ = Linalg.Mat.dims clean in
  let n_paths = store.Store.n_paths in
  let die i =
    let measured = Linalg.Mat.row clean i and truth = Linalg.Mat.row truth i in
    let full = Array.make n_paths 0.0 in
    Array.iteri (fun j k -> full.(k) <- measured.(j)) rep;
    Array.iteri (fun j k -> full.(k) <- truth.(j)) rem;
    { Serve.Monitor.measured; truth; full; resid = 0.0; wafer = "" }
  in
  let wal_dir =
    let d = Filename.temp_file "pathsel-serve-wal" "" in
    Sys.remove d;
    d
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists wal_dir then begin
        Array.iter
          (fun f -> try Sys.remove (Filename.concat wal_dir f) with Sys_error _ -> ())
          (Sys.readdir wal_dir);
        try Unix.rmdir wal_dir with Unix.Unix_error _ -> ()
      end)
  @@ fun () ->
  let wal = ok (Store.Wal.open_ wal_dir) in
  ignore
    (ok
       (Store.Wal.append wal
          (List.init n_dies (fun i -> Serve.Durable.encode_obs (die i)))));
  Store.Wal.close wal;
  let ckpt = Filename.concat wal_dir "checkpoint.psc" in
  Out_channel.with_open_bin ckpt (fun oc -> Out_channel.output_string oc ckpt_bytes);
  (match
     Serve.Durable.load_checkpoint ~config:serve_mon_cfg
       ~reselect:(fun _ -> Error "none") ckpt
   with
   | Error e when expected e -> ()
   | Error e -> Alcotest.failf "%s: wrong error: %s" label (Core.Errors.to_string e)
   | Ok _ -> Alcotest.failf "%s: checkpoint accepted" label);
  let file_gen = Serve.Durable.checkpoint_generation ckpt in
  let config =
    {
      Serve.default_config with
      Serve.monitor = Some serve_mon_cfg;
      durability =
        Some
          { Serve.wal_dir; checkpoint_every = 4; wal_segment_bytes = 1 lsl 22;
            wal_retain = 1 };
    }
  in
  let t = Serve.create ~config store in
  (match Serve.monitor_report t with
   | None -> Alcotest.failf "%s: monitor not armed" label
   | Some r ->
     Alcotest.(check int) (label ^ ": cold monitor replayed the whole WAL") n_dies
       r.Serve.Monitor.observed);
  let gen =
    match Serve.Wire.parse (Serve.handle t {|{"op":"ping"}|}) with
    | Ok j ->
      (match Serve.Wire.member "gen" j with
       | Some (Serve.Wire.Int g) -> g
       | _ -> Alcotest.failf "%s: ping has no generation" label)
    | Error m -> Alcotest.failf "%s: ping reply: %s" label m
  in
  (gen, file_gen)

let empty_monitor () =
  let store, _ = Lazy.force artifact in
  let r = Array.length (Core.Predictor.rep_indices (Store.predictor store)) in
  Serve.Monitor.create ~config:serve_mon_cfg ~n_paths:store.Store.n_paths ~r
    ~m:(store.Store.n_paths - r) ~reselect:(fun _ -> Error "none") ()

(* a checkpoint boot cannot use must not abort it: [Serve.create]
   cold-starts the monitor and replays the whole WAL. Here the
   checkpoint is CRC-valid but its ring count decodes out of range
   (high word 2^30); its leading generation still counts *)
let test_corrupt_checkpoint_boots_cold () =
  let gen, file_gen =
    boot_on_bad_checkpoint ~label:"ring count out of range"
      (Test_monitor.reframe (Test_monitor.checkpoint_bytes ~gen:5 (empty_monitor ()))
         ~f:(fun payload -> Bytes.set_int32_le payload 36 0x40000000l))
      (function Core.Errors.Corrupt_artifact _ -> true | _ -> false)
  in
  Alcotest.(check (option int)) "intact frame names its generation" (Some 5) file_gen;
  Alcotest.(check int) "boot bumps past it" 6 gen

(* a version-1 checkpoint (its layout still carried the incremental-
   regression block) is rejected, but its frame and CRC are intact and
   the generation is its first word in both layouts: boot bumps past
   it, so generations stay strictly monotonic across the upgrade *)
let test_v1_checkpoint_keeps_generation () =
  let gen, file_gen =
    boot_on_bad_checkpoint ~label:"version-1 checkpoint"
      (Test_monitor.v1_checkpoint_bytes ~gen:5 (empty_monitor ()))
      (function
        | Core.Errors.Version_mismatch { found = 1; expected = 2; _ } -> true
        | _ -> false)
  in
  Alcotest.(check (option int)) "version-1 frame names its generation" (Some 5) file_gen;
  Alcotest.(check int) "boot bumps past it" 6 gen

(* a checkpoint whose CRC fails holds no generation anyone can trust:
   boot restarts it at 1, and says so on stderr *)
let test_crc_damaged_checkpoint_restarts_generation () =
  let bytes = Bytes.of_string (Test_monitor.checkpoint_bytes ~gen:5 (empty_monitor ())) in
  let last = Bytes.length bytes - 1 in
  Bytes.set_uint8 bytes last (Bytes.get_uint8 bytes last lxor 0x01);
  let gen, file_gen =
    boot_on_bad_checkpoint ~label:"CRC-damaged checkpoint" (Bytes.to_string bytes)
      (function Core.Errors.Corrupt_artifact _ -> true | _ -> false)
  in
  Alcotest.(check (option int)) "no generation survives a CRC failure" None file_gen;
  Alcotest.(check int) "boot restarts the generation" 1 gen

let suites =
  [
    ( "serve",
      [
        Alcotest.test_case "wire round trip" `Quick test_wire_roundtrip;
        Alcotest.test_case "wire floats keep their bits" `Quick
          test_wire_float_bits;
        Alcotest.test_case "wire nesting depth is capped" `Quick
          test_wire_depth_cap;
        Alcotest.test_case "wire parse matches the reference parser" `Quick
          test_wire_parse_matches_reference;
        Alcotest.test_case "wire unboxed rows print like the boxed tree" `Quick
          test_wire_unboxed_rows;
        QCheck_alcotest.to_alcotest prop_float_rows_match_reference;
        QCheck_alcotest.to_alcotest prop_streamed_equals_print;
        Alcotest.test_case "clean batch bit-identical over socket" `Quick
          test_clean_batch_bit_identical;
        Alcotest.test_case "faulty batch matches Robust" `Quick
          test_faulty_batch_matches_robust;
        Alcotest.test_case "connection sends the bytes handle returns" `Quick
          test_connection_sends_handle_bytes;
        Alcotest.test_case "malformed lines poison only themselves" `Quick
          test_malformed_line_isolated;
        Alcotest.test_case "stats counters" `Quick test_stats_counters;
        Alcotest.test_case "stats latency includes encoding" `Quick
          test_stats_latency_includes_encoding;
        Alcotest.test_case "framer edge cases" `Quick test_framer_edges;
        QCheck_alcotest.to_alcotest prop_framer_chunking;
        QCheck_alcotest.to_alcotest prop_framer_model;
        Alcotest.test_case "framer gives back a long line's storage" `Quick
          test_framer_gives_back_storage;
        Alcotest.test_case "framing edge cases over the socket" `Quick
          test_framing_over_socket;
        Alcotest.test_case "overload shedding" `Quick test_shed_overloaded;
        Alcotest.test_case "deadline expiry answers and closes" `Quick
          test_deadline_exceeded;
        Alcotest.test_case "a stalled reader is timed out once per response" `Quick
          test_stalled_reader;
        Alcotest.test_case "idle connections reaped" `Quick test_idle_reaped;
        Alcotest.test_case "SIGHUP hot reload" `Quick test_sighup_reload;
        Alcotest.test_case "retry policy semantics" `Quick test_retry_semantics;
        Alcotest.test_case "generation counter and reload" `Quick
          test_generation_and_reload;
        Alcotest.test_case "observe requires the monitor" `Quick
          test_observe_requires_monitor;
        Alcotest.test_case "drift to auto-reselect, end to end" `Quick
          test_auto_reselect_end_to_end;
        Alcotest.test_case "reselect failure degrades gracefully" `Quick
          test_reselect_failure_degrades_gracefully;
        Alcotest.test_case "client observe and generation tracking" `Quick
          test_client_observe_and_generation;
        Alcotest.test_case "restart recovers generation and monitor state"
          `Quick test_restart_recovers_state;
        Alcotest.test_case "corrupt checkpoint boots cold and replays the WAL"
          `Quick test_corrupt_checkpoint_boots_cold;
        Alcotest.test_case "version-1 checkpoint keeps the generation monotonic"
          `Quick test_v1_checkpoint_keeps_generation;
        Alcotest.test_case "CRC-damaged checkpoint restarts the generation"
          `Quick test_crc_damaged_checkpoint_restarts_generation;
      ] );
  ]
