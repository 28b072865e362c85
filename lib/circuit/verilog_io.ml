exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun s -> raise (Parse_error (line, s))) fmt

(* ------------------------------------------------------------------ *)
(* Lexer *)

type token =
  | Tid of string
  | Tlparen
  | Trparen
  | Tcomma
  | Tsemi
  | Tdot

let keywords = [ "module"; "endmodule"; "input"; "output"; "wire" ]

let tokenize text =
  let n = String.length text in
  let toks = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let push t = toks := (t, !line) :: !toks in
  let is_id_char c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true
    | _ -> false
  in
  while !i < n do
    let c = text.[!i] in
    (match c with
     | '\n' -> incr line; incr i
     | ' ' | '\t' | '\r' -> incr i
     | '/' when !i + 1 < n && text.[!i + 1] = '/' ->
       while !i < n && text.[!i] <> '\n' do incr i done
     | '/' when !i + 1 < n && text.[!i + 1] = '*' ->
       i := !i + 2;
       let closed = ref false in
       while not !closed && !i < n do
         if text.[!i] = '\n' then incr line;
         if !i + 1 < n && text.[!i] = '*' && text.[!i + 1] = '/' then begin
           closed := true;
           i := !i + 2
         end
         else incr i
       done;
       if not !closed then fail !line "unterminated comment"
     | '(' -> push Tlparen; incr i
     | ')' -> push Trparen; incr i
     | ',' -> push Tcomma; incr i
     | ';' -> push Tsemi; incr i
     | '.' -> push Tdot; incr i
     | '\\' ->
       (* escaped identifier: up to whitespace *)
       let start = !i + 1 in
       i := start;
       while !i < n && text.[!i] <> ' ' && text.[!i] <> '\t' && text.[!i] <> '\n' do
         incr i
       done;
       push (Tid (String.sub text start (!i - start)))
     | _ when is_id_char c ->
       let start = !i in
       while !i < n && is_id_char text.[!i] do incr i done;
       push (Tid (String.sub text start (!i - start)))
     | '[' -> fail !line "buses are not supported by the structural subset"
     | _ -> fail !line "unexpected character %C" c)
  done;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Parser *)

type stream = { mutable toks : (token * int) list }

let peek s = match s.toks with [] -> None | t :: _ -> Some t

let next s what =
  match s.toks with
  | [] -> fail 0 "expected %s at end of input" what
  | t :: rest ->
    s.toks <- rest;
    t

let expect_tok s what t0 =
  let t, line = next s what in
  if t <> t0 then fail line "expected %s" what

let expect_id s what =
  match next s what with
  | Tid w, _ -> w
  | _, line -> fail line "expected %s" what

let parse_id_list s =
  (* names separated by commas, terminated by ';' *)
  let rec go acc =
    let id = expect_id s "identifier" in
    match next s "',' or ';'" with
    | Tcomma, _ -> go (id :: acc)
    | Tsemi, _ -> List.rev (id :: acc)
    | _, line -> fail line "expected ',' or ';'"
  in
  go []

type connection = Positional of string list | Named of (string * string) list

let parse_connections s =
  expect_tok s "'('" Tlparen;
  match peek s with
  | Some (Tdot, _) ->
    (* named: .PORT(net), ... *)
    let rec go acc =
      expect_tok s "'.'" Tdot;
      let port = expect_id s "port name" in
      expect_tok s "'('" Tlparen;
      let net = expect_id s "net name" in
      expect_tok s "')'" Trparen;
      match next s "',' or ')'" with
      | Tcomma, _ -> go ((port, net) :: acc)
      | Trparen, _ -> Named (List.rev ((port, net) :: acc))
      | _, line -> fail line "expected ',' or ')'"
    in
    go []
  | Some _ ->
    let rec go acc =
      let net = expect_id s "net name" in
      match next s "',' or ')'" with
      | Tcomma, _ -> go (net :: acc)
      | Trparen, _ -> Positional (List.rev (net :: acc))
      | _, line -> fail line "expected ',' or ')'"
    in
    go []
  | None -> fail 0 "unterminated connection list"

(* Verilog primitive name -> generic function name for arity dispatch *)
let primitive_function = function
  | "and" -> Some "AND"
  | "or" -> Some "OR"
  | "nand" -> Some "NAND"
  | "nor" -> Some "NOR"
  | "xor" -> Some "XOR"
  | "xnor" -> Some "XNOR"
  | "not" -> Some "NOT"
  | "buf" -> Some "BUF"
  | _ -> None

type raw_instance = {
  line : int;
  cell : string;        (* cell or primitive name *)
  out_net : string;
  in_nets : string list;
}

let parse ~name text =
  let s = { toks = tokenize text } in
  expect_tok s "'module'" (Tid "module");
  let mod_name = expect_id s "module name" in
  (* header port list (names only) *)
  (match peek s with
   | Some (Tlparen, _) ->
     ignore (next s "(");
     let rec skip () =
       match next s "port list" with
       | Trparen, _ -> ()
       | (Tid _ | Tcomma), _ -> skip ()
       | _, line -> fail line "unexpected token in port list"
     in
     skip ();
     expect_tok s "';'" Tsemi
   | Some _ | None -> ());
  let inputs = ref [] in
  let outputs = ref [] in
  let wires = ref [] in
  let instances = ref [] in
  let finished = ref false in
  while not !finished do
    match next s "statement" with
    | Tid "endmodule", _ -> finished := true
    | Tid "input", _ -> inputs := !inputs @ parse_id_list s
    | Tid "output", _ -> outputs := !outputs @ parse_id_list s
    | Tid "wire", _ -> wires := !wires @ parse_id_list s
    | Tid cellname, line when not (List.mem cellname keywords) ->
      let inst = expect_id s "instance name" in
      let conns = parse_connections s in
      expect_tok s "';'" Tsemi;
      let out_net, in_nets =
        match conns with
        | Positional (out :: ins) -> (out, ins)
        | Positional [] -> fail line "instance %s has no connections" inst
        | Named pairs ->
          (* output pins: Z, Q, Y, OUT; everything else is an input *)
          let is_output p =
            List.mem (String.uppercase_ascii p) [ "Z"; "Q"; "Y"; "OUT"; "O" ]
          in
          let outs, ins = List.partition (fun (p, _) -> is_output p) pairs in
          (match outs with
           | [ (_, net) ] -> (net, List.map snd ins)
           | [] -> fail line "instance %s has no output connection" inst
           | _ -> fail line "instance %s has multiple output connections" inst)
      in
      ignore inst;
      instances := { line; cell = cellname; out_net; in_nets } :: !instances
    | Tid kw, line -> fail line "unsupported construct %s" kw
    | _, line -> fail line "unexpected token"
  done;
  let instances = List.rev !instances in
  let mod_name = if mod_name = "" then name else mod_name in
  (* DFF cut: Q net becomes a pseudo input, D net a pseudo output *)
  let is_dff c =
    let u = String.uppercase_ascii c in
    String.length u >= 3 && String.sub u 0 3 = "DFF"
  in
  let dffs, logic = List.partition (fun r -> is_dff r.cell) instances in
  let pseudo_inputs = List.map (fun r -> r.out_net) dffs in
  let pseudo_outputs = List.concat_map (fun r -> r.in_nets) dffs in
  let all_inputs = !inputs @ pseudo_inputs in
  let all_outputs = !outputs @ pseudo_outputs in
  (* translate to the .bench intermediate and reuse its topological
     ordering and decomposition machinery *)
  let buf = Buffer.create 4096 in
  List.iter (fun i -> Buffer.add_string buf (Printf.sprintf "INPUT(%s)\n" i)) all_inputs;
  List.iter (fun o -> Buffer.add_string buf (Printf.sprintf "OUTPUT(%s)\n" o)) all_outputs;
  List.iter
    (fun r ->
      let fname =
        match primitive_function (String.lowercase_ascii r.cell) with
        | Some f -> f
        | None ->
          (match Cell.of_name r.cell with
           | Some c -> Cell.name c
           | None -> fail r.line "unknown cell %s" r.cell)
      in
      Buffer.add_string buf
        (Printf.sprintf "%s = %s(%s)\n" r.out_net fname (String.concat ", " r.in_nets)))
    logic;
  match Bench_io.parse ~name:mod_name (Buffer.contents buf) with
  | nl -> nl
  | exception Bench_io.Parse_error (_, msg) -> raise (Parse_error (0, msg))

let print nl =
  let buf = Buffer.create 4096 in
  let num_inputs = Netlist.num_inputs nl in
  let input_names = List.init num_inputs (fun i -> Printf.sprintf "pi%d" i) in
  let output_names =
    Array.to_list (Netlist.outputs nl) |> List.map (Netlist.signal_name nl)
  in
  Buffer.add_string buf
    (Printf.sprintf "module %s (%s);\n" (Netlist.name nl)
       (String.concat ", " (input_names @ List.sort_uniq compare output_names)));
  Buffer.add_string buf
    (Printf.sprintf "  input %s;\n" (String.concat ", " input_names));
  Buffer.add_string buf
    (Printf.sprintf "  output %s;\n"
       (String.concat ", " (List.sort_uniq compare output_names)));
  let out_set = List.sort_uniq compare output_names in
  let wires =
    Array.to_list (Netlist.gates nl)
    |> List.filter_map (fun (g : Netlist.gate) ->
         if List.mem g.name out_set then None else Some g.name)
  in
  if wires <> [] then
    Buffer.add_string buf (Printf.sprintf "  wire %s;\n" (String.concat ", " wires));
  Array.iter
    (fun (g : Netlist.gate) ->
      let ins =
        g.fanin |> Array.to_list
        |> List.map (fun code -> Netlist.signal_name nl (Netlist.decode_signal nl code))
      in
      Buffer.add_string buf
        (Printf.sprintf "  %s u_%s (%s);\n" (Cell.name g.cell) g.name
           (String.concat ", " (g.name :: ins))))
    (Netlist.gates nl);
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf
