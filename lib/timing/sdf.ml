exception Parse_error of int * string
exception Annotate_error of string

let write nl ~delays =
  if Array.length delays <> Circuit.Netlist.num_gates nl then
    invalid_arg "Sdf.write: delays length mismatch";
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "(DELAYFILE\n";
  Buffer.add_string buf "  (SDFVERSION \"3.0\")\n";
  Buffer.add_string buf
    (Printf.sprintf "  (DESIGN \"%s\")\n" (Circuit.Netlist.name nl));
  Buffer.add_string buf "  (TIMESCALE 1ps)\n";
  Array.iter
    (fun (g : Circuit.Netlist.gate) ->
      let d = delays.(g.id) in
      Buffer.add_string buf
        (Printf.sprintf
           "  (CELL (CELLTYPE \"%s\") (INSTANCE %s)\n\
           \    (DELAY (ABSOLUTE (IOPATH A Z (%.3f:%.3f:%.3f) (%.3f:%.3f:%.3f)))))\n"
           (Circuit.Cell.name g.cell) g.name d d d d d d))
    (Circuit.Netlist.gates nl);
  Buffer.add_string buf ")\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reader: a little s-expression scanner specialized to the subset *)

type sexp = Atom of string | List of sexp list

let parse_sexps text =
  let n = String.length text in
  let line = ref 1 in
  let i = ref 0 in
  let rec skip_ws () =
    if !i < n then
      match text.[!i] with
      | '\n' ->
        incr line;
        incr i;
        skip_ws ()
      | ' ' | '\t' | '\r' ->
        incr i;
        skip_ws ()
      | '/' when !i + 1 < n && text.[!i + 1] = '/' ->
        while !i < n && text.[!i] <> '\n' do incr i done;
        skip_ws ()
      | _ -> ()
  in
  let rec parse_one () =
    skip_ws ();
    if !i >= n then raise (Parse_error (!line, "unexpected end of input"));
    match text.[!i] with
    | '(' ->
      incr i;
      let items = ref [] in
      let rec go () =
        skip_ws ();
        if !i >= n then raise (Parse_error (!line, "unterminated list"));
        if text.[!i] = ')' then incr i
        else begin
          items := parse_one () :: !items;
          go ()
        end
      in
      go ();
      List (List.rev !items)
    | ')' -> raise (Parse_error (!line, "unexpected ')'"))
    | '"' ->
      incr i;
      let start = !i in
      while !i < n && text.[!i] <> '"' do
        if text.[!i] = '\n' then incr line;
        incr i
      done;
      if !i >= n then raise (Parse_error (!line, "unterminated string"));
      let s = String.sub text start (!i - start) in
      incr i;
      Atom s
    | _ ->
      let start = !i in
      while
        !i < n
        && (match text.[!i] with
            | ' ' | '\t' | '\n' | '\r' | '(' | ')' -> false
            | _ -> true)
      do
        incr i
      done;
      Atom (String.sub text start (!i - start))
  in
  let top = parse_one () in
  skip_ws ();
  top

let triple_first atom =
  (* "1.5:1.5:1.5" -> 1.5; plain numbers accepted too *)
  match String.split_on_char ':' atom with
  | v :: _ -> float_of_string_opt (String.trim v)
  | [] -> None

let read text =
  let top = parse_sexps text in
  let results = ref [] in
  let rec find_instance_and_delay items =
    let instance = ref None in
    let delay = ref None in
    List.iter
      (fun item ->
        match item with
        | List (Atom "INSTANCE" :: Atom inst :: _) -> instance := Some inst
        | List (Atom "DELAY" :: rest) ->
          List.iter
            (fun r ->
              match r with
              | List (Atom "ABSOLUTE" :: paths) ->
                List.iter
                  (fun p ->
                    match p with
                    | List (Atom "IOPATH" :: _ :: _ :: values) ->
                      (* delay triples are parenthesized: (rise:typ:fall) *)
                      (match values with
                       | Atom v :: _ when !delay = None -> delay := triple_first v
                       | List (Atom v :: _) :: _ when !delay = None ->
                         delay := triple_first v
                       | List _ :: _ | Atom _ :: _ | [] -> ())
                    | List _ | Atom _ -> ())
                  paths
              | List _ | Atom _ -> ())
            rest
        | List _ | Atom _ -> ())
      items;
    match !instance, !delay with
    | Some inst, Some d -> results := (inst, d) :: !results
    | (Some _ | None), (Some _ | None) -> ()
  and walk = function
    | List (Atom "CELL" :: items) -> find_instance_and_delay items
    | List items -> List.iter walk items
    | Atom _ -> ()
  in
  walk top;
  List.rev !results

let annotate nl pairs =
  let tbl = Hashtbl.create (List.length pairs) in
  List.iter (fun (inst, d) -> Hashtbl.replace tbl inst d) pairs;
  let missing = ref [] in
  let delays =
    Array.map
      (fun (g : Circuit.Netlist.gate) ->
        match Hashtbl.find_opt tbl g.name with
        | Some d -> d
        | None ->
          missing := g.name :: !missing;
          nan)
      (Circuit.Netlist.gates nl)
  in
  (match List.rev !missing with
   | [] -> ()
   | names ->
     let shown = List.filteri (fun i _ -> i < 5) names in
     raise
       (Annotate_error
          (Printf.sprintf "Sdf.annotate: no delay for %d of %d instances (%s%s)"
          (List.length names)
          (Circuit.Netlist.num_gates nl)
          (String.concat ", " shown)
          (if List.length names > 5 then ", ..." else ""))));
  delays

let annotate_lenient nl pairs =
  let tbl = Hashtbl.create (List.length pairs) in
  List.iter (fun (inst, d) -> Hashtbl.replace tbl inst d) pairs;
  let present = List.map snd pairs |> List.filter Float.is_finite in
  if present = [] then raise (Annotate_error "Sdf.annotate_lenient: no usable delays at all");
  let fallback =
    (* median of the annotated delays: a neutral stand-in for a gate
       the SDF forgot, keeping the netlist usable for path extraction *)
    let sorted = List.sort compare present in
    List.nth sorted (List.length sorted / 2)
  in
  let warnings = ref [] in
  let delays =
    Array.map
      (fun (g : Circuit.Netlist.gate) ->
        match Hashtbl.find_opt tbl g.name with
        | Some d when Float.is_finite d -> d
        | Some _ ->
          warnings :=
            Printf.sprintf "non-finite delay for %s; using median %.3f" g.name
              fallback
            :: !warnings;
          fallback
        | None ->
          warnings :=
            Printf.sprintf "no delay for instance %s; using median %.3f" g.name
              fallback
            :: !warnings;
          fallback)
      (Circuit.Netlist.gates nl)
  in
  (delays, List.rev !warnings)
