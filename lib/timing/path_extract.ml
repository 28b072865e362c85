type path = { gates : int array; mu : float; sigma : float }

type result = { paths : path list; truncated : bool; visited_nodes : int }

exception Limit_reached

(* Incremental accumulator for the variance of the partial path: keeps
   the coefficient of every variable, indexed by slot, and the running
   sum of squared coefficients, with exact push/pop symmetry. *)
module Acc = struct
  type t = { terms : Delay_model.terms; coeffs : float array; mutable ss : float }

  let create dm =
    let coeffs = Array.make (Delay_model.num_slots dm) 0.0 in
    { terms = Delay_model.terms dm; coeffs; ss = 0.0 }

  let push t g =
    let { Delay_model.ptr; slots; coefs } = t.terms in
    for e = ptr.(g) to ptr.(g + 1) - 1 do
      let s = slots.(e) in
      let old = t.coeffs.(s) in
      let cur = old +. coefs.(e) in
      t.ss <- t.ss +. ((cur *. cur) -. (old *. old));
      t.coeffs.(s) <- cur
    done

  (* a coefficient that returns to exactly 0.0 is stored as +0.0, so a
     slot reads the same whether or not an earlier frame emptied it *)
  let pop t g =
    let { Delay_model.ptr; slots; coefs } = t.terms in
    for e = ptr.(g) to ptr.(g + 1) - 1 do
      let s = slots.(e) in
      let cur = t.coeffs.(s) in
      let old = cur -. coefs.(e) in
      t.ss <- t.ss +. ((old *. old) -. (cur *. cur));
      t.coeffs.(s) <- (if Float.equal old 0.0 then 0.0 else old)
    done

  let sigma t = sqrt (Float.max 0.0 t.ss)

  let clear t =
    Array.fill t.coeffs 0 (Array.length t.coeffs) 0.0;
    t.ss <- 0.0
end

let path_yield p ~t_cons =
  Stats.Normal.cdf_of { Stats.Normal.mean = p.mu; std = p.sigma } t_cons

exception Source_limit

(* The dedup table, keyed by a path's whole gate sequence. The
   polymorphic hash reads only an array's first 10 elements, so every
   path through the same 10-gate prefix would share one bucket and each
   lookup would compare whole arrays down that bucket. *)
module Path_tbl = Hashtbl.Make (struct
  type t = int array

  let equal a b = Array.length a = Array.length b && Array.for_all2 Int.equal a b

  let hash = Array.fold_left (fun h g -> (h * 31) + g) 0
end)

let extract ?(max_paths = 20_000) dm ~t_cons ~yield_threshold =
  if not (yield_threshold > 0.0 && yield_threshold < 1.0) then
    invalid_arg "Path_extract.extract: yield_threshold outside (0,1)";
  if t_cons <= 0.0 then invalid_arg "Path_extract.extract: t_cons <= 0";
  let nl = Delay_model.netlist dm in
  let tg = Tgraph.build nl in
  let z = Stats.Normal.quantile yield_threshold in
  let rest_mu = Tgraph.rest_bounds tg ~gate_value:(Delay_model.nominal dm) in
  let rest_sig = Tgraph.rest_bounds tg ~gate_value:(Delay_model.sigma dm) in
  let acc = Acc.create dm in
  let stack = ref [] in
  let found = ref [] in
  let n_found = ref 0 in
  let visited = ref 0 in
  let seen = Path_tbl.create 1024 in
  let truncated = ref false in
  (* extraction test on a complete path *)
  (* Fair truncation: when the cap binds, no single PI may contribute
     more than its share in the first pass; leftover budget is spent in
     a second pass without the per-source cap. This keeps a truncated
     pool structurally diverse instead of exhausting the first input
     cones. *)
  let n_pi = Array.length (Tgraph.pi_codes tg) in
  let source_cap = max 16 ((max_paths + n_pi - 1) / n_pi) in
  let source_found = ref 0 in
  let capped = ref true in
  (* [mu] is the walk's running sum, added gate by gate from 0.0 in
     source-to-sink order *)
  let record mu =
    let gates = Array.of_list (List.rev !stack) in
    if not (Path_tbl.mem seen gates) then begin
      Path_tbl.add seen gates ();
      let sigma = Acc.sigma acc in
      if mu +. (z *. sigma) > t_cons then begin
        found := { gates; mu; sigma } :: !found;
        incr n_found;
        incr source_found;
        if !n_found >= max_paths then begin
          truncated := true;
          raise Limit_reached
        end;
        if !capped && !source_found >= source_cap then raise Source_limit
      end
    end
  in
  let rec dfs v mu_acc sigsum_acc =
    incr visited;
    if Tgraph.is_po tg v && v >= Circuit.Netlist.num_inputs nl then record mu_acc;
    List.iter
      (fun (a : Tgraph.arc) ->
        let g = a.gate in
        let mu' = mu_acc +. Delay_model.nominal dm g in
        let sigsum' = sigsum_acc +. Delay_model.sigma dm g in
        if rest_mu.(a.dst) > neg_infinity then begin
          let sig_bound = if z > 0.0 then z *. (sigsum' +. rest_sig.(a.dst)) else 0.0 in
          if mu' +. rest_mu.(a.dst) +. sig_bound > t_cons then begin
            Acc.push acc g;
            stack := g :: !stack;
            dfs a.dst mu' sigsum';
            stack := List.tl !stack;
            Acc.pop acc g
          end
        end)
      (Tgraph.arcs_from tg v)
  in
  (try
     let any_source_capped = ref false in
     Array.iter
       (fun pi ->
         source_found := 0;
         try dfs pi 0.0 0.0
         with Source_limit ->
           (* the abort unwound past the push/pop pairs: reset the
              accumulator and the gate stack before the next source *)
           Acc.clear acc;
           stack := [];
           any_source_capped := true)
       (Tgraph.pi_codes tg);
     if !any_source_capped then begin
       (* second pass: spend the remaining budget without the per-source
          cap (already-seen paths are deduplicated); completing it means
          the enumeration is in fact exhaustive *)
       capped := false;
       Array.iter (fun pi -> dfs pi 0.0 0.0) (Tgraph.pi_codes tg)
     end
   with Limit_reached -> ());
  { paths = List.rev !found; truncated = !truncated; visited_nodes = !visited }
