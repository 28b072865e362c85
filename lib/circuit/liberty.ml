exception Parse_error of int * string

type value =
  | Number of float
  | Word of string
  | Quoted of string
  | Tuple of value list

type group = {
  gname : string;
  args : value list;
  attrs : (string * value) list;
  subgroups : group list;
}

(* ------------------------------------------------------------------ *)
(* Lexer *)

type token =
  | Tident of string
  | Tnumber of float
  | Tstring of string
  | Tlparen
  | Trparen
  | Tlbrace
  | Trbrace
  | Tcolon
  | Tsemi
  | Tcomma

let fail line fmt = Printf.ksprintf (fun s -> raise (Parse_error (line, s))) fmt

let tokenize text =
  let n = String.length text in
  let tokens = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let push t = tokens := (t, !line) :: !tokens in
  let is_word_char c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' | '+' | '*' | '/'
    | '!' | '\'' | '[' | ']' -> true
    | _ -> false
  in
  while !i < n do
    let c = text.[!i] in
    (match c with
     | '\n' ->
       incr line;
       incr i
     | ' ' | '\t' | '\r' -> incr i
     | '\\' ->
       (* line continuation: skip, along with a following newline *)
       incr i;
       if !i < n && text.[!i] = '\r' then incr i;
       if !i < n && text.[!i] = '\n' then begin
         incr line;
         incr i
       end
     | '/' when !i + 1 < n && text.[!i + 1] = '*' ->
       let closed = ref false in
       i := !i + 2;
       while not !closed && !i < n do
         if text.[!i] = '\n' then incr line;
         if !i + 1 < n && text.[!i] = '*' && text.[!i + 1] = '/' then begin
           closed := true;
           i := !i + 2
         end
         else incr i
       done;
       if not !closed then fail !line "unterminated comment"
     | '/' when !i + 1 < n && text.[!i + 1] = '/' ->
       while !i < n && text.[!i] <> '\n' do incr i done
     | '#' -> while !i < n && text.[!i] <> '\n' do incr i done
     | '"' ->
       let buf = Buffer.create 32 in
       incr i;
       let closed = ref false in
       while not !closed && !i < n do
         (match text.[!i] with
          | '"' -> closed := true
          | '\\' when !i + 1 < n && text.[!i + 1] = '\n' ->
            (* escaped newline inside a string: Liberty multi-line values *)
            incr line;
            incr i
          | '\n' ->
            incr line;
            Buffer.add_char buf ' '
          | ch -> Buffer.add_char buf ch);
         incr i
       done;
       if not !closed then fail !line "unterminated string";
       push (Tstring (Buffer.contents buf))
     | '(' -> push Tlparen; incr i
     | ')' -> push Trparen; incr i
     | '{' -> push Tlbrace; incr i
     | '}' -> push Trbrace; incr i
     | ':' -> push Tcolon; incr i
     | ';' -> push Tsemi; incr i
     | ',' -> push Tcomma; incr i
     | _ when is_word_char c ->
       let start = !i in
       while !i < n && is_word_char text.[!i] do incr i done;
       let w = String.sub text start (!i - start) in
       (match float_of_string_opt w with
        | Some f -> push (Tnumber f)
        | None -> push (Tident w))
     | _ -> fail !line "unexpected character %C" c);
  done;
  List.rev !tokens

(* ------------------------------------------------------------------ *)
(* Parser *)

type stream = { mutable toks : (token * int) list }

let peek s = match s.toks with [] -> None | t :: _ -> Some t

let advance s = match s.toks with [] -> () | _ :: rest -> s.toks <- rest

let expect s what pred =
  match peek s with
  | Some (t, line) when pred t -> advance s; (t, line)
  | Some (_, line) -> fail line "expected %s" what
  | None -> fail 0 "expected %s at end of input" what

let value_of_token = function
  | Tnumber f -> Number f
  | Tident w -> Word w
  | Tstring str -> Quoted str
  | Tlparen | Trparen | Tlbrace | Trbrace | Tcolon | Tsemi | Tcomma ->
    invalid_arg "value_of_token"

let parse_args s =
  ignore (expect s "'('" (fun t -> t = Tlparen));
  let rec go acc =
    match peek s with
    | Some (Trparen, _) ->
      advance s;
      List.rev acc
    | Some (Tcomma, _) ->
      advance s;
      go acc
    | Some ((Tnumber _ | Tident _ | Tstring _), _) ->
      let t, _ = expect s "value" (fun _ -> true) in
      go (value_of_token t :: acc)
    | Some (_, line) -> fail line "unexpected token in argument list"
    | None -> fail 0 "unterminated argument list"
  in
  go []

let rec parse_group_body s gname args =
  ignore (expect s "'{'" (fun t -> t = Tlbrace));
  let attrs = ref [] in
  let subgroups = ref [] in
  let rec go () =
    match peek s with
    | Some (Trbrace, _) ->
      advance s;
      (* optional trailing semicolon *)
      (match peek s with Some (Tsemi, _) -> advance s | Some _ | None -> ())
    | Some (Tident name, line) ->
      advance s;
      (match peek s with
       | Some (Tcolon, _) ->
         advance s;
         let t, _ = expect s "attribute value" (fun t ->
             match t with Tnumber _ | Tident _ | Tstring _ -> true | _ -> false)
         in
         (match peek s with Some (Tsemi, _) -> advance s | Some _ | None -> ());
         attrs := (name, value_of_token t) :: !attrs;
         go ()
       | Some (Tlparen, _) ->
         let args = parse_args s in
         (match peek s with
          | Some (Tlbrace, _) ->
            let g = parse_group_body s name args in
            subgroups := g :: !subgroups;
            go ()
          | Some (Tsemi, _) ->
            advance s;
            (* complex attribute *)
            attrs := (name, Tuple args) :: !attrs;
            go ()
          | Some (_, line) -> fail line "expected '{' or ';' after %s(...)" name
          | None -> fail 0 "unexpected end after %s(...)" name)
       | Some (_, _) -> fail line "expected ':' or '(' after %s" name
       | None -> fail 0 "unexpected end after %s" name)
    | Some (Tsemi, _) ->
      advance s;
      go ()
    | Some (_, line) -> fail line "unexpected token in group %s" gname
    | None -> fail 0 "unterminated group %s" gname
  in
  go ();
  { gname; args; attrs = List.rev !attrs; subgroups = List.rev !subgroups }

let parse text =
  let s = { toks = tokenize text } in
  match peek s with
  | Some (Tident name, _) ->
    advance s;
    let args = parse_args s in
    parse_group_body s name args
  | Some (_, line) -> fail line "expected a top-level group"
  | None -> fail 0 "empty input"

(* ------------------------------------------------------------------ *)
(* Tables *)

module Table = struct
  type t = {
    index1 : float array;
    index2 : float array;
    values : float array array;
  }

  let bracket axis x =
    (* indices (i, i+1) straddling x, clamped; weight for the upper *)
    let n = Array.length axis in
    if n = 1 then (0, 0, 0.0)
    else if x <= axis.(0) then (0, 1, 0.0)
    else if x >= axis.(n - 1) then (n - 2, n - 1, 1.0)
    else begin
      let i = ref 0 in
      while axis.(!i + 1) < x do incr i done;
      let w = (x -. axis.(!i)) /. (axis.(!i + 1) -. axis.(!i)) in
      (!i, !i + 1, w)
    end

  let lookup t ~slew ~load =
    let i0, i1, wi = bracket t.index1 slew in
    let j0, j1, wj = bracket t.index2 load in
    let v i j = t.values.(i).(j) in
    ((1.0 -. wi) *. (((1.0 -. wj) *. v i0 j0) +. (wj *. v i0 j1)))
    +. (wi *. (((1.0 -. wj) *. v i1 j0) +. (wj *. v i1 j1)))
end

(* ------------------------------------------------------------------ *)
(* Library distillation *)

module Library = struct
  type timing = {
    delay_rise : Table.t option;
    delay_fall : Table.t option;
    slew_rise : Table.t option;
    slew_fall : Table.t option;
  }

  type cell = {
    cell_name : string;
    area : float option;
    input_caps : (string * float) list;
    timings : timing list;
  }

  type t = { lib_name : string; cells : cell list }

  let floats_of_quoted = function
    | Quoted s ->
      String.split_on_char ',' s
      |> List.concat_map (String.split_on_char ' ')
      |> List.filter_map (fun w ->
           let w = String.trim w in
           if w = "" then None else float_of_string_opt w)
    | Number f -> [ f ]
    | Word _ | Tuple _ -> []

  let tuple_floats = function
    | Tuple vs -> List.concat_map floats_of_quoted vs
    | v -> floats_of_quoted v

  let table_of_group g =
    let find_attr name = List.assoc_opt name g.attrs in
    let axis name default =
      match find_attr name with
      | Some v ->
        let l = tuple_floats v in
        if l = [] then default else Array.of_list l
      | None -> default
    in
    let index1 = axis "index_1" [| 0.0 |] in
    let index2 = axis "index_2" [| 0.0 |] in
    match find_attr "values" with
    | None -> None
    | Some v ->
      let flat =
        match v with
        | Tuple vs -> List.map floats_of_quoted vs
        | Quoted _ | Number _ | Word _ -> [ floats_of_quoted v ]
      in
      let rows = List.filter (fun r -> r <> []) flat in
      let expected_cols = Array.length index2 in
      let values =
        match rows with
        | [ one ] when List.length one = Array.length index1 * expected_cols ->
          (* single flat list: reshape *)
          let arr = Array.of_list one in
          Array.init (Array.length index1) (fun i ->
              Array.sub arr (i * expected_cols) expected_cols)
        | _ -> Array.of_list (List.map Array.of_list rows)
      in
      if Array.length values <> Array.length index1
         || Array.exists (fun r -> Array.length r <> expected_cols) values
      then None
      else Some { Table.index1; index2; values }

  let timing_of_group g =
    let sub name =
      List.find_opt (fun sg -> sg.gname = name) g.subgroups
      |> fun o -> Option.bind o table_of_group
    in
    {
      delay_rise = sub "cell_rise";
      delay_fall = sub "cell_fall";
      slew_rise = sub "rise_transition";
      slew_fall = sub "fall_transition";
    }

  let cell_of_group g =
    let cell_name =
      match g.args with
      | [ Word w ] | [ Quoted w ] -> w
      | _ -> "?"
    in
    let area =
      match List.assoc_opt "area" g.attrs with
      | Some (Number f) -> Some f
      | Some (Word _ | Quoted _ | Tuple _) | None -> None
    in
    let input_caps = ref [] in
    let timings = ref [] in
    List.iter
      (fun pin ->
        if pin.gname = "pin" then begin
          let pname =
            match pin.args with
            | [ Word w ] | [ Quoted w ] -> w
            | _ -> "?"
          in
          let direction =
            match List.assoc_opt "direction" pin.attrs with
            | Some (Word d) | Some (Quoted d) -> d
            | Some (Number _ | Tuple _) | None -> ""
          in
          (match List.assoc_opt "capacitance" pin.attrs with
           | Some (Number c) when direction <> "output" ->
             input_caps := (pname, c) :: !input_caps
           | Some _ | None -> ());
          List.iter
            (fun tg -> if tg.gname = "timing" then timings := timing_of_group tg :: !timings)
            pin.subgroups
        end)
      g.subgroups;
    { cell_name; area; input_caps = List.rev !input_caps; timings = List.rev !timings }

  let of_group g =
    if g.gname <> "library" then
      raise (Parse_error (0, "Liberty.Library.of_group: not a library"));
    let lib_name =
      match g.args with
      | [ Word w ] | [ Quoted w ] -> w
      | _ -> "?"
    in
    let cells =
      List.filter_map
        (fun sg -> if sg.gname = "cell" then Some (cell_of_group sg) else None)
        g.subgroups
    in
    { lib_name; cells }

  let find_cell t name =
    let lname = String.lowercase_ascii name in
    List.find_opt (fun c -> String.lowercase_ascii c.cell_name = lname) t.cells

  let fold_tables f init cell =
    List.fold_left
      (fun acc timing ->
        List.fold_left
          (fun acc t -> match t with Some tbl -> f acc tbl | None -> acc)
          acc
          [ timing.delay_rise; timing.delay_fall ])
      init cell.timings

  let worst_delay cell ~slew ~load =
    fold_tables (fun acc tbl -> Float.max acc (Table.lookup tbl ~slew ~load)) 0.0 cell

  let worst_output_slew cell ~slew ~load =
    List.fold_left
      (fun acc timing ->
        List.fold_left
          (fun acc t ->
            match t with
            | Some tbl -> Float.max acc (Table.lookup tbl ~slew ~load)
            | None -> acc)
          acc
          [ timing.slew_rise; timing.slew_fall ])
      0.0 cell.timings

  let average_input_cap cell =
    match cell.input_caps with
    | [] -> 0.0
    | caps ->
      List.fold_left (fun acc (_, c) -> acc +. c) 0.0 caps
      /. float_of_int (List.length caps)
end

(* ------------------------------------------------------------------ *)
(* Built-in 90nm-flavoured library *)

let builtin_cell name area cap d00 =
  (* one timing group per cell; tables scale a base delay d00 (ns) over a
     3x3 (slew ns x load pF) grid with plausible slopes *)
  let t v = Printf.sprintf "%.5f" v in
  let row s = Printf.sprintf "\"%s, %s, %s\"" (t s) (t (s *. 1.35)) (t (s *. 1.9)) in
  let tbl scale =
    Printf.sprintf
      "        index_1 (\"0.01, 0.08, 0.30\");\n\
      \        index_2 (\"0.001, 0.010, 0.040\");\n\
      \        values (%s, %s, %s);"
      (row (d00 *. scale))
      (row (d00 *. scale *. 1.25))
      (row (d00 *. scale *. 1.7))
  in
  Printf.sprintf
    "  cell (%s) {\n\
    \    area : %.2f;\n\
    \    pin (A) { direction : input; capacitance : %.4f; }\n\
    \    pin (Z) {\n\
    \      direction : output;\n\
    \      timing () {\n\
    \      cell_rise (delay_template_3x3) {\n%s\n      }\n\
    \      cell_fall (delay_template_3x3) {\n%s\n      }\n\
    \      rise_transition (delay_template_3x3) {\n%s\n      }\n\
    \      fall_transition (delay_template_3x3) {\n%s\n      }\n\
    \      }\n\
    \    }\n\
    \  }\n"
    name area cap (tbl 1.0) (tbl 0.95) (tbl 0.6) (tbl 0.65)

let builtin =
  let cells =
    [
      ("INV", 1.0, 0.0018, 0.014);
      ("BUF", 1.6, 0.0016, 0.026);
      ("NAND2", 1.4, 0.0021, 0.022);
      ("NAND3", 1.9, 0.0023, 0.031);
      ("NOR2", 1.5, 0.0024, 0.027);
      ("NOR3", 2.1, 0.0026, 0.039);
      ("AND2", 1.8, 0.0019, 0.033);
      ("OR2", 1.9, 0.0020, 0.037);
      ("XOR2", 2.6, 0.0028, 0.048);
      ("XNOR2", 2.7, 0.0028, 0.050);
      ("AOI21", 2.2, 0.0025, 0.036);
      ("OAI21", 2.1, 0.0024, 0.034);
    ]
  in
  "library (repro90) {\n  time_unit : \"1ns\";\n  capacitive_load_unit (1, pf);\n"
  ^ String.concat "" (List.map (fun (n, a, c, d) -> builtin_cell n a c d) cells)
  ^ "}\n"
