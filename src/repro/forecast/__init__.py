"""Forecasting substrate: Levenberg–Marquardt, CSS ARMA/ARIMA, numpy LSTM."""
