exception Not_positive_definite

let factor a =
  let n, m = Mat.dims a in
  if n <> m then invalid_arg "Cholesky.factor: matrix not square";
  let l = Mat.create n n in
  for j = 0 to n - 1 do
    let acc = ref (Mat.get a j j) in
    for k = 0 to j - 1 do
      let v = Mat.get l j k in
      acc := !acc -. (v *. v)
    done;
    if !acc <= 0.0 then raise Not_positive_definite;
    let d = sqrt !acc in
    Mat.set l j j d;
    for i = j + 1 to n - 1 do
      let s = ref (Mat.get a i j) in
      for k = 0 to j - 1 do
        s := !s -. (Mat.get l i k *. Mat.get l j k)
      done;
      Mat.set l i j (!s /. d)
    done
  done;
  l

let solve l b =
  let n, _ = Mat.dims l in
  if Array.length b <> n then invalid_arg "Cholesky.solve: dimension mismatch";
  let y = Array.copy b in
  for i = 0 to n - 1 do
    let acc = ref y.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (Mat.get l i j *. y.(j))
    done;
    y.(i) <- !acc /. Mat.get l i i
  done;
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Mat.get l j i *. y.(j))
    done;
    y.(i) <- !acc /. Mat.get l i i
  done;
  y
