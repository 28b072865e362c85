let of_mat ?tol a = Svd.rank ?tol (Svd.factor ~vectors:Values a)

let of_mat_qr ?tol a = Qr.rank ?tol (Qr.factor_pivoted a)
